package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The checks below recompute every answer in plain float64 Go from the
// generator, without calling the program. Each returns nil or an error that
// names what disagreed.

// table is a read-only view of a generated matrix: n rows of p columns.
type table struct {
	n   int64
	p   int
	row func(i int64, dst []float64)
}

func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// checkCorrelation compares a p×p correlation matrix (row-major) with a
// two-pass computation: column means first, then centred cross-products.
func checkCorrelation(x table, got []float64) error {
	return compareCorrelation(x.p, correlationRef(x), got)
}

// compareCorrelation checks got against the reference ref, and requires a
// unit diagonal and exact symmetry.
func compareCorrelation(p int, ref, got []float64) error {
	if len(got) != p*p {
		return fmt.Errorf("correlation: %d values, want %d", len(got), p*p)
	}
	for a := 0; a < p; a++ {
		if got[a*p+a] != 1 {
			return fmt.Errorf("correlation: diagonal [%d] = %v, want 1", a, got[a*p+a])
		}
		for b := a + 1; b < p; b++ {
			if got[a*p+b] != got[b*p+a] {
				return fmt.Errorf("correlation: [%d,%d]=%v but [%d,%d]=%v", a, b, got[a*p+b], b, a, got[b*p+a])
			}
			if want := ref[a*p+b]; math.Abs(got[a*p+b]-want) > 1e-9 {
				return fmt.Errorf("correlation: [%d,%d]=%v, reference %v", a, b, got[a*p+b], want)
			}
		}
	}
	return nil
}

// correlationRef is the two-pass correlation matrix of x (upper triangle
// filled).
func correlationRef(x table) []float64 {
	p := x.p
	row := make([]float64, p)
	mean := make([]float64, p)
	for i := int64(0); i < x.n; i++ {
		x.row(i, row)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(x.n)
	}
	cov := make([]float64, p*p)
	for i := int64(0); i < x.n; i++ {
		x.row(i, row)
		for a := 0; a < p; a++ {
			da := row[a] - mean[a]
			for b := a; b < p; b++ {
				cov[a*p+b] += da * (row[b] - mean[b])
			}
		}
	}
	ref := make([]float64, p*p)
	for a := 0; a < p; a++ {
		for b := a; b < p; b++ {
			ref[a*p+b] = cov[a*p+b] / math.Sqrt(cov[a*p+a]*cov[b*p+b])
		}
	}
	return ref
}

// sqDist is the squared Euclidean distance between a row and a center.
func sqDist(row, c []float64) float64 {
	var d float64
	for j, v := range row {
		e := v - c[j]
		d += e * e
	}
	return d
}

// kmeansRef is the outcome of a plain-Go Lloyd run: the assignment of its
// last iteration, which rows of that assignment were near ties, and the
// centers and sizes that iteration produced.
type kmeansRef struct {
	assign  []int32
	nearTie []bool
	centers []float64
	sizes   []float64
}

// nearTieRel is how close, relative to the nearest distance, a row's two
// nearest centers may be before the program and the reference may assign
// it differently: their centers differ in the last bits, because they sum
// the groups in different orders.
const nearTieRel = 1e-9

// maxTieFlips is how many near-tie rows may be assigned differently.
const maxTieFlips = 16

// referenceLloyd runs iters Lloyd iterations from initCenters with the
// model's conventions: each row goes to its first nearest center, and a
// center with no rows keeps its previous value.
func referenceLloyd(x table, k int, initCenters []float64, iters int) kmeansRef {
	p := x.p
	ref := kmeansRef{
		assign:  make([]int32, x.n),
		nearTie: make([]bool, x.n),
		centers: append([]float64(nil), initCenters...),
	}
	row := make([]float64, p)
	for it := 0; it < iters; it++ {
		counts := make([]float64, k)
		sums := make([]float64, k*p)
		for i := int64(0); i < x.n; i++ {
			x.row(i, row)
			best, second, g := math.Inf(1), math.Inf(1), 0
			for c := 0; c < k; c++ {
				d := sqDist(row, ref.centers[c*p:(c+1)*p])
				if d < best {
					best, second, g = d, best, c
				} else if d < second {
					second = d
				}
			}
			ref.assign[i] = int32(g)
			ref.nearTie[i] = second-best <= nearTieRel*math.Max(1, best)
			counts[g]++
			for j, v := range row {
				sums[g*p+j] += v
			}
		}
		for g := 0; g < k; g++ {
			if counts[g] == 0 {
				continue
			}
			for j := 0; j < p; j++ {
				ref.centers[g*p+j] = sums[g*p+j] / counts[g]
			}
		}
		ref.sizes = counts
	}
	return ref
}

// checkKMeans checks a k-means fit over all rows. Against the reference
// Lloyd run from the same start: every row is assigned as the reference
// assigns it, except at most maxTieFlips near-tie rows, and, when no row
// differs, the sizes are equal and the centers agree to 1e-9. Within the
// answer itself: the sizes are the assignment counts and sum to n, each
// center is the mean of the rows assigned to it, and the objective is the
// total squared distance of every row to its nearest returned center.
func checkKMeans(x table, k int, ref kmeansRef, centers []float64, assign, sizes []float64, objective float64) error {
	p := x.p
	if len(centers) != k*p || len(sizes) != k || int64(len(assign)) != x.n {
		return fmt.Errorf("kmeans: shapes centers=%d sizes=%d assign=%d", len(centers), len(sizes), len(assign))
	}
	counts := make([]float64, k)
	sums := make([]float64, k*p)
	row := make([]float64, p)
	var obj float64
	flips := 0
	for i := int64(0); i < x.n; i++ {
		g := int(assign[i])
		if float64(g) != assign[i] || g < 0 || g >= k {
			return fmt.Errorf("kmeans: row %d assigned to %v", i, assign[i])
		}
		if g != int(ref.assign[i]) {
			if !ref.nearTie[i] {
				return fmt.Errorf("kmeans: row %d assigned to %d, reference Lloyd %d", i, g, ref.assign[i])
			}
			if flips++; flips > maxTieFlips {
				return fmt.Errorf("kmeans: more than %d near-tie rows assigned apart from the reference", maxTieFlips)
			}
		}
		x.row(i, row)
		counts[g]++
		for j, v := range row {
			sums[g*p+j] += v
		}
		best := math.Inf(1)
		for c := 0; c < k; c++ {
			best = math.Min(best, sqDist(row, centers[c*p:(c+1)*p]))
		}
		obj += best
	}
	var total float64
	for g := 0; g < k; g++ {
		total += sizes[g]
		if sizes[g] != counts[g] {
			return fmt.Errorf("kmeans: cluster %d size %v, %v rows assigned", g, sizes[g], counts[g])
		}
		if flips == 0 && sizes[g] != ref.sizes[g] {
			return fmt.Errorf("kmeans: cluster %d size %v, reference Lloyd %v", g, sizes[g], ref.sizes[g])
		}
		if counts[g] == 0 {
			continue
		}
		for j := 0; j < p; j++ {
			c := centers[g*p+j]
			if want := sums[g*p+j] / counts[g]; !relClose(c, want, 1e-9) {
				return fmt.Errorf("kmeans: center[%d,%d]=%v, group mean %v", g, j, c, want)
			}
			if want := ref.centers[g*p+j]; flips == 0 && !relClose(c, want, 1e-9) {
				return fmt.Errorf("kmeans: center[%d,%d]=%v, reference Lloyd %v", g, j, c, want)
			}
		}
	}
	if total != float64(x.n) {
		return fmt.Errorf("kmeans: sizes sum to %v, want %d", total, x.n)
	}
	if !relClose(objective, obj, 1e-9) {
		return fmt.Errorf("kmeans: objective %v, recomputed %v", objective, obj)
	}
	return nil
}

// logLoss is the mean logistic loss of weights w over the rows of x with
// labels y.
func logLoss(x table, y func(i int64) float64, w []float64) float64 {
	row := make([]float64, x.p)
	var sum float64
	for i := int64(0); i < x.n; i++ {
		x.row(i, row)
		var z float64
		for j, v := range row {
			z += w[j] * v
		}
		sum += math.Max(z, 0) + math.Log1p(math.Exp(-math.Abs(z))) - y(i)*z
	}
	return sum / float64(x.n)
}

// checkLogistic recomputes the logloss at the returned weights and requires
// it to beat the zero model's ln 2.
func checkLogistic(x table, y func(i int64) float64, w []float64, reported float64) error {
	if len(w) != x.p {
		return fmt.Errorf("logistic: %d weights, want %d", len(w), x.p)
	}
	want := logLoss(x, y, w)
	if !relClose(reported, want, 1e-9) {
		return fmt.Errorf("logistic: logloss %v, recomputed %v", reported, want)
	}
	if want >= math.Ln2 {
		return fmt.Errorf("logistic: logloss %v is no better than ln 2", want)
	}
	return nil
}

// gmmFit is a Gaussian mixture as the checks see it: k weights, k×p means
// (row-major) and the mean log-likelihood the fit reported.
type gmmFit struct {
	weights []float64
	means   []float64
	logLike float64
}

// checkGMM requires the weights to sum to 1 and compares the fit with an
// independent plain-Go EM run from the same initial means for the same
// number of iterations: weights, means and the mean log-likelihood (taken,
// as the fit reports it, in the last E-step) must agree.
func checkGMM(x table, k int, initMeans []float64, iters int, got gmmFit) error {
	return compareGMM(k, referenceEM(x, k, initMeans, iters), got)
}

func compareGMM(k int, ref, got gmmFit) error {
	var ws float64
	for _, w := range got.weights {
		ws += w
	}
	if !relClose(ws, 1, 1e-9) {
		return fmt.Errorf("gmm: weights sum to %v", ws)
	}
	if !relClose(got.logLike, ref.logLike, 1e-7) {
		return fmt.Errorf("gmm: mean log-likelihood %v, reference EM %v", got.logLike, ref.logLike)
	}
	for c := 0; c < k; c++ {
		if !relClose(got.weights[c], ref.weights[c], 1e-6) {
			return fmt.Errorf("gmm: weight[%d]=%v, reference EM %v", c, got.weights[c], ref.weights[c])
		}
	}
	for i, m := range got.means {
		if !relClose(m, ref.means[i], 1e-6) {
			return fmt.Errorf("gmm: mean[%d]=%v, reference EM %v", i, m, ref.means[i])
		}
	}
	return nil
}

// referenceEM runs full-covariance EM in plain Go with the model's
// conventions: weights start at 1/k, every covariance starts at the ridged
// global covariance, and each M-step ridges the new covariances.
func referenceEM(x table, k int, initMeans []float64, iters int) gmmFit {
	p, n := x.p, float64(x.n)
	row := make([]float64, p)
	mu0 := make([]float64, p)
	gram := make([]float64, p*p)
	for i := int64(0); i < x.n; i++ {
		x.row(i, row)
		for a, va := range row {
			mu0[a] += va
			for b, vb := range row {
				gram[a*p+b] += va * vb
			}
		}
	}
	for a := range mu0 {
		mu0[a] /= n
	}
	glob := make([]float64, p*p)
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			glob[a*p+b] = gram[a*p+b]/n - mu0[a]*mu0[b]
		}
	}
	fit := gmmFit{weights: make([]float64, k), means: append([]float64(nil), initMeans...)}
	covs := make([][]float64, k)
	for c := range covs {
		fit.weights[c] = 1 / float64(k)
		covs[c] = ridged(append([]float64(nil), glob...), p)
	}
	logd := make([]float64, k)
	diff := make([]float64, p)
	for it := 0; it < iters; it++ {
		type comp struct {
			inv   []float64
			konst float64
		}
		cs := make([]comp, k)
		for c := range cs {
			inv, logDet := invertSPD(covs[c], p)
			cs[c] = comp{inv, math.Log(fit.weights[c]) - 0.5*(float64(p)*math.Log(2*math.Pi)+logDet)}
		}
		nc := make([]float64, k)
		wsum := make([]float64, k*p)
		grams := make([]float64, k*p*p)
		var ll float64
		for i := int64(0); i < x.n; i++ {
			x.row(i, row)
			mx := math.Inf(-1)
			for c := 0; c < k; c++ {
				mu := fit.means[c*p : (c+1)*p]
				for j := range diff {
					diff[j] = row[j] - mu[j]
				}
				var q float64
				for a := 0; a < p; a++ {
					var s float64
					for b := 0; b < p; b++ {
						s += cs[c].inv[a*p+b] * diff[b]
					}
					q += diff[a] * s
				}
				logd[c] = cs[c].konst - 0.5*q
				mx = math.Max(mx, logd[c])
			}
			var se float64
			for c := range logd {
				logd[c] = math.Exp(logd[c] - mx)
				se += logd[c]
			}
			ll += mx + math.Log(se)
			for c := 0; c < k; c++ {
				r := logd[c] / se
				nc[c] += r
				for a, va := range row {
					wsum[c*p+a] += r * va
					for b, vb := range row {
						grams[(c*p+a)*p+b] += r * va * vb
					}
				}
			}
		}
		for c := 0; c < k; c++ {
			w := math.Max(nc[c], 1e-10)
			fit.weights[c] = w / n
			for a := 0; a < p; a++ {
				fit.means[c*p+a] = wsum[c*p+a] / w
			}
			cov := make([]float64, p*p)
			for a := 0; a < p; a++ {
				for b := 0; b < p; b++ {
					cov[a*p+b] = grams[(c*p+a)*p+b]/w - fit.means[c*p+a]*fit.means[c*p+b]
				}
			}
			covs[c] = ridged(cov, p)
		}
		fit.logLike = ll / n
	}
	return fit
}

// ridged adds the model's diagonal loading (1e-6 of the mean variance plus
// 1e-9) to a p×p covariance in place.
func ridged(c []float64, p int) []float64 {
	var tr float64
	for i := 0; i < p; i++ {
		tr += c[i*p+i]
	}
	eps := 1e-6*tr/float64(p) + 1e-9
	for i := 0; i < p; i++ {
		c[i*p+i] += eps
	}
	return c
}

// invertSPD inverts a symmetric positive-definite p×p matrix by Cholesky
// factorisation and returns the inverse and the log-determinant.
func invertSPD(a []float64, p int) ([]float64, float64) {
	l := make([]float64, p*p)
	var logDet float64
	for i := 0; i < p; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*p+j]
			for m := 0; m < j; m++ {
				s -= l[i*p+m] * l[j*p+m]
			}
			if i == j {
				l[i*p+i] = math.Sqrt(s)
				logDet += 2 * math.Log(l[i*p+i])
			} else {
				l[i*p+j] = s / l[j*p+j]
			}
		}
	}
	inv := make([]float64, p*p)
	col := make([]float64, p)
	for e := 0; e < p; e++ {
		// Solve L y = e_e, then Lᵀ x = y.
		for i := 0; i < p; i++ {
			s := 0.0
			if i == e {
				s = 1
			}
			for m := 0; m < i; m++ {
				s -= l[i*p+m] * col[m]
			}
			col[i] = s / l[i*p+i]
		}
		for i := p - 1; i >= 0; i-- {
			s := col[i]
			for m := i + 1; m < p; m++ {
				s -= l[m*p+i] * col[m]
			}
			col[i] = s / l[i*p+i]
		}
		for i := 0; i < p; i++ {
			inv[i*p+e] = col[i]
		}
	}
	return inv, logDet
}

// checkRowsExact requires rows [lo, lo+len(got)/p) of a matrix to equal
// want(i, j) bit for bit.
func checkRowsExact(what string, got []float64, lo int64, p int, want func(i int64, j int) float64) error {
	if len(got)%p != 0 {
		return fmt.Errorf("%s: %d values do not fill rows of %d", what, len(got), p)
	}
	for k, v := range got {
		i, j := lo+int64(k/p), k%p
		if w := want(i, j); math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("%s: [%d,%d]=%v, want %v", what, i, j, v, w)
		}
	}
	return nil
}

// checkScalarText parses a REPL scalar ("[1] 12.5") and compares it with
// want to the six significant digits the REPL prints.
func checkScalarText(what, text string, want float64) error {
	s, ok := strings.CutPrefix(text, "[1] ")
	if !ok {
		return fmt.Errorf("%s: %q is not a scalar", what, text)
	}
	got, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("%s: %q: %v", what, text, err)
	}
	if !relClose(got, want, 1e-5) {
		return fmt.Errorf("%s: served %v, reference %v", what, got, want)
	}
	return nil
}
