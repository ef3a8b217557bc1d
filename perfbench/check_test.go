package main

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	flashr "repro"
	"repro/internal/safs"
	"repro/ml"
)

// Each check must accept the program's real answer on a small input and
// reject the same answer with one value perturbed.

func smallTable(seed, n int64, p int, gen func(seed, i int64, j int) float64) table {
	return genTable(n, p, func(i int64, j int) float64 { return gen(seed, i, j) })
}

func genMat(t *testing.T, s *flashr.Session, x table) *flashr.FM {
	t.Helper()
	m, err := s.GenerateMat(x.n, x.p, func(i int64, j int) float64 {
		row := make([]float64, x.p)
		x.row(i, row)
		return row[j]
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustReject(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: perturbed answer accepted", what)
	}
}

func TestCorrelationCheck(t *testing.T) {
	x := smallTable(7, 3000, 5, xVal)
	s := flashr.NewMemSession()
	defer s.Close()
	got, err := ml.Correlation(genMat(t, s, x))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCorrelation(x, got.Data); err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}
	p := x.p
	both := append([]float64(nil), got.Data...)
	both[1*p+3] += 1e-6
	both[3*p+1] += 1e-6
	mustReject(t, "symmetric off-diagonal", checkCorrelation(x, both))
	one := append([]float64(nil), got.Data...)
	one[2*p+4] += 1e-12
	mustReject(t, "asymmetric", checkCorrelation(x, one))
	diag := append([]float64(nil), got.Data...)
	diag[0] = 1 - 1e-12
	mustReject(t, "diagonal", checkCorrelation(x, diag))
}

func TestKMeansCheck(t *testing.T) {
	x := smallTable(3, 4000, 4, xVal)
	s := flashr.NewMemSession()
	defer s.Close()
	const k, iters = 3, 3
	init := firstRows(x, k)
	res, err := ml.KMeans(s, genMat(t, s, x), k, ml.KMeansOptions{MaxIter: iters, InitCenters: init})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := res.Assign.AsVector()
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceLloyd(x, k, init.Data, iters)
	c := res.Centers.Data
	if err := checkKMeans(x, k, ref, c, assign, res.Sizes, res.Objective); err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}
	mustReject(t, "objective", checkKMeans(x, k, ref, c, assign, res.Sizes, res.Objective*(1+1e-7)))
	c2 := append([]float64(nil), c...)
	c2[5] += 1e-6
	mustReject(t, "center", checkKMeans(x, k, ref, c2, assign, res.Sizes, res.Objective))
	a2 := append([]float64(nil), assign...)
	a2[17] = float64((int(a2[17]) + 1) % k)
	mustReject(t, "assignment", checkKMeans(x, k, ref, c, a2, res.Sizes, res.Objective))
	s2 := append([]float64(nil), res.Sizes...)
	s2[0]++
	s2[1]--
	mustReject(t, "sizes", checkKMeans(x, k, ref, c, assign, s2, res.Objective))

	// Wrong assignments whose centers, sizes and objective are consistent
	// with them: every row moved to the next cluster, and every row sent
	// to its farthest center (which.max in place of which.min).
	if err := consistentKMeans(x, k, ref, assign); err != nil {
		t.Fatalf("real assignment rejected: %v", err)
	}
	shifted := make([]float64, len(assign))
	for i, g := range assign {
		shifted[i] = float64((int(g) + 1) % k)
	}
	mustReject(t, "shifted assignment", consistentKMeans(x, k, ref, shifted))
	farthest := make([]float64, len(assign))
	row := make([]float64, x.p)
	for i := range farthest {
		x.row(int64(i), row)
		worst := -1.0
		for g := 0; g < k; g++ {
			if d := sqDist(row, c[g*x.p:(g+1)*x.p]); d > worst {
				worst, farthest[i] = d, float64(g)
			}
		}
	}
	mustReject(t, "farthest-center assignment", consistentKMeans(x, k, ref, farthest))
}

// consistentKMeans checks assign together with the centers, sizes and
// objective that follow from it, so only the assignment itself can be wrong.
func consistentKMeans(x table, k int, ref kmeansRef, assign []float64) error {
	p := x.p
	sizes := make([]float64, k)
	centers := make([]float64, k*p)
	row := make([]float64, p)
	for i, g := range assign {
		x.row(int64(i), row)
		sizes[int(g)]++
		for j, v := range row {
			centers[int(g)*p+j] += v
		}
	}
	for g := 0; g < k; g++ {
		for j := 0; j < p; j++ {
			centers[g*p+j] /= sizes[g]
		}
	}
	var obj float64
	for i := int64(0); i < x.n; i++ {
		x.row(i, row)
		best := math.Inf(1)
		for g := 0; g < k; g++ {
			best = math.Min(best, sqDist(row, centers[g*p:(g+1)*p]))
		}
		obj += best
	}
	return checkKMeans(x, k, ref, centers, assign, sizes, obj)
}

func TestLogisticCheck(t *testing.T) {
	const n, p = 4000, 6
	x := smallTable(5, n, p, xVal)
	y := func(i int64) float64 { return yVal(5, i, p) }
	s := flashr.NewMemSession()
	defer s.Close()
	ym, err := s.GenerateMat(n, 1, func(i int64, _ int) float64 { return y(i) })
	if err != nil {
		t.Fatal(err)
	}
	m, err := ml.LogisticRegressionLBFGS(s, genMat(t, s, x), ym, ml.LogisticOptions{MaxIter: 6, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLogistic(x, y, m.W, m.LogLoss); err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}
	mustReject(t, "logloss", checkLogistic(x, y, m.W, m.LogLoss+1e-6))
	w2 := append([]float64(nil), m.W...)
	w2[2] += 1e-4
	mustReject(t, "weight", checkLogistic(x, y, w2, m.LogLoss))
	mustReject(t, "zero model", checkLogistic(x, y, make([]float64, p), math.Ln2))
}

func TestGMMCheck(t *testing.T) {
	const k, iters = 4, 3
	x := smallTable(9, 4000, gmmP, gVal)
	s := flashr.NewMemSession()
	defer s.Close()
	init := firstRows(x, k)
	m, err := ml.GMM(s, genMat(t, s, x), k, ml.GMMOptions{MaxIter: iters, Tol: 1e-15, InitMeans: init})
	if err != nil {
		t.Fatal(err)
	}
	got := gmmFit{weights: m.Weights, means: m.Means.Data, logLike: m.LogLike}
	if err := checkGMM(x, k, init.Data, iters, got); err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}
	w := got
	w.weights = append([]float64(nil), got.weights...)
	w.weights[1] += 1e-6
	mustReject(t, "weight", checkGMM(x, k, init.Data, iters, w))
	ll := got
	ll.logLike += 1e-5
	mustReject(t, "log-likelihood", checkGMM(x, k, init.Data, iters, ll))
	mu := got
	mu.means = append([]float64(nil), got.means...)
	mu.means[3] += 1e-4
	mustReject(t, "mean", checkGMM(x, k, init.Data, iters, mu))
}

func TestSavedCheck(t *testing.T) {
	const n = 6000
	dir := t.TempDir()
	dirs := []string{filepath.Join(dir, "a"), filepath.Join(dir, "b")}
	s, err := flashr.NewSession(flashr.Options{EM: true, SSDDirs: dirs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := &env{seed: 4}
	x, err := s.GenerateMat(n, fitP, func(i int64, j int) float64 { return xVal(e.seed, i, j) })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveNamed(derive(x), "d"); err != nil {
		t.Fatal(err)
	}
	z, err := s.OpenNamed("d")
	if err != nil {
		t.Fatal(err)
	}
	reps, err := s.VerifyNamed("d")
	if err != nil {
		t.Fatal(err)
	}
	sums, err := flashr.ColSums(z).AsVector()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.checkSaved(z, reps, sums, n); err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}
	bad := append([]safs.VerifyReport(nil), reps...)
	bad[0].Corrupt = []safs.CorruptStripe{{Stripe: 0}}
	mustReject(t, "verify report", e.checkSaved(z, bad, sums, n))
	s2 := append([]float64(nil), sums...)
	s2[7] *= 1 + 1e-6
	mustReject(t, "scan", e.checkSaved(z, reps, s2, n))
	mustReject(t, "rows", e.checkSaved(x, reps, sums, n))
}

func TestRowsAndScalarChecks(t *testing.T) {
	want := func(i int64, j int) float64 { return float64(i) + float64(j)/8 }
	got := []float64{want(10, 0), want(10, 1), want(11, 0), want(11, 1)}
	if err := checkRowsExact("rows", got, 10, 2, want); err != nil {
		t.Fatalf("real rows rejected: %v", err)
	}
	got[3] = math.Nextafter(got[3], 100)
	mustReject(t, "one ulp", checkRowsExact("rows", got, 10, 2, want))

	if err := checkScalarText("s", "[1] 12345.7", 12345.67); err != nil {
		t.Fatalf("real scalar rejected: %v", err)
	}
	mustReject(t, "scalar", checkScalarText("s", "[1] 12346.7", 12345.67))
	mustReject(t, "not a scalar", checkScalarText("s", "12345.7", 12345.67))
}

func TestServedCheck(t *testing.T) {
	e := &env{seed: 2}
	rep := make([]reply, 8)
	for i := range rep {
		kind, c, _ := servProgram(1, i)
		if kind < 2 {
			var sum float64
			for r := int64(0); r < servN; r++ {
				for j := 0; j < servP; j++ {
					sum += math.Max(servVal(e.seed, 1, r, j), c)
				}
			}
			rep[i].text = fmt.Sprintf("[1] %g", sum)
			continue
		}
		lo, hi := fetchRange(i)
		for r := lo; r < hi; r++ {
			for j := 0; j < servP; j++ {
				rep[i].rows = append(rep[i].rows, servVal(e.seed, 1, r, j)*c)
			}
		}
	}
	if err := e.checkServed(1, rep); err != nil {
		t.Fatalf("real replies rejected: %v", err)
	}
	rep[3].rows[5] += 1.0 / 1024
	mustReject(t, "fetched row", e.checkServed(1, rep))
	rep[3].rows[5] -= 1.0 / 1024
	rep[1].text = "[1] 1"
	mustReject(t, "served scalar", e.checkServed(1, rep))
}

func TestServProgramsUnique(t *testing.T) {
	seen := map[string]int{}
	for tn := 0; tn < tenants; tn++ {
		for i := 0; i < servReqs; i++ {
			kind, c, src := servProgram(tn, i)
			if kind == 1 && c >= repeatScalarC[0] {
				t.Fatalf("unique constant %v collides with the repeated set", c)
			}
			seen[src]++
		}
	}
	repeated := 0
	for _, n := range seen {
		if n > 1 {
			repeated++
		}
	}
	if repeated != len(repeatScalarC)+len(repeatMatrixC) {
		t.Fatalf("%d programs repeat, want %d", repeated, len(repeatScalarC)+len(repeatMatrixC))
	}
}

// quartiles must match Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
