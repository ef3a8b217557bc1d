package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	flashr "repro"
	"repro/internal/dense"
	"repro/internal/safs"
	"repro/ml"
)

// Input sizes and fit settings. Iteration counts are fixed and tolerances
// tiny, so every seed runs the same number of passes and a run's time does
// not depend on when a fit happens to converge.
const (
	fitP      = 32
	kmK       = 10
	kmIters   = 6
	lrIters   = 10
	gmmN      = 200_000
	gmmP      = 8
	gmmK      = 4
	gmmIters  = 3
	ssdDrives = 4
	// The simulated array is throttled well below compute speed, so SAFS
	// reads and writes set the pace of fit-ssd.
	ssdReadMBps  = 300
	ssdWriteMBps = 300
)

var fitN = map[string]int64{
	"fit-mem":   500_000,
	"fit-ssd":   250_000,
	"fit-shard": 250_000,
}

// fitInputs are the generated matrices of one round.
type fitInputs struct {
	n    int64
	x, y *flashr.FM
	g    *flashr.FM // GMM input (fit-mem only)
}

// genTable is the n×p matrix gen(i, j) as a table. Rows are recomputed from
// the generator as they are read, so the checks hold no copy of the input
// and the process's peak resident set is the program's.
func genTable(n int64, p int, gen func(i int64, j int) float64) table {
	return table{n: n, p: p, row: func(i int64, dst []float64) {
		for j := range dst[:p] {
			dst[j] = gen(i, j)
		}
	}}
}

func (e *env) xTable() table {
	return genTable(fitN[e.workload], fitP, func(i int64, j int) float64 { return xVal(e.seed, i, j) })
}

func (e *env) gTable() table {
	return genTable(gmmN, gmmP, func(i int64, j int) float64 { return gVal(e.seed, i, j) })
}

func (e *env) yFunc() func(i int64) float64 {
	return func(i int64) float64 { return yVal(e.seed, i, fitP) }
}

func (e *env) generate(s *flashr.Session, withGMM bool) (*fitInputs, error) {
	in := &fitInputs{n: fitN[e.workload]}
	var err error
	if in.x, err = s.GenerateMat(in.n, fitP, func(i int64, j int) float64 { return xVal(e.seed, i, j) }); err != nil {
		return nil, err
	}
	if in.y, err = s.GenerateMat(in.n, 1, func(i int64, _ int) float64 { return yVal(e.seed, i, fitP) }); err != nil {
		return nil, err
	}
	if withGMM {
		if in.g, err = s.GenerateMat(gmmN, gmmP, func(i int64, j int) float64 { return gVal(e.seed, i, j) }); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// firstRows is the k×p matrix of rows 0..k-1 of t: the initial k-means
// centers and GMM means, taken from the input itself.
func firstRows(t table, k int) *dense.Dense {
	d := dense.New(k, t.p)
	for i := 0; i < k; i++ {
		t.row(int64(i), d.Row(i))
	}
	return d
}

// fits holds the answers of one round's fits, checked after timing.
type fits struct {
	corr *dense.Dense
	km   *ml.KMeansResult
	lr   *ml.LogisticModel
	gmm  *ml.GMMModel
}

// runFits times the fits of one round in order, each as one phase.
func (e *env) runFits(s *flashr.Session, in *fitInputs, lp *layerProbe, corr, gmm bool) (*fits, error) {
	f := &fits{}
	if corr {
		if err := lp.phase("ml.correlation_s", func() (err error) {
			f.corr, err = ml.Correlation(in.x)
			return err
		}); err != nil {
			return nil, fmt.Errorf("correlation: %w", err)
		}
	}
	kmInit := firstRows(e.xTable(), kmK)
	if err := lp.phase("ml.kmeans_s", func() (err error) {
		f.km, err = ml.KMeans(s, in.x, kmK, ml.KMeansOptions{MaxIter: kmIters, InitCenters: kmInit})
		return err
	}); err != nil {
		return nil, fmt.Errorf("kmeans: %w", err)
	}
	lp.perIter("ml.kmeans.passes_per_iter", f.km.Iters)
	if err := lp.phase("ml.logistic_s", func() (err error) {
		f.lr, err = ml.LogisticRegressionLBFGS(s, in.x, in.y, ml.LogisticOptions{MaxIter: lrIters, Tol: 1e-15})
		return err
	}); err != nil {
		return nil, fmt.Errorf("logistic: %w", err)
	}
	lp.perIter("ml.logistic.passes_per_iter", f.lr.Iters)
	if gmm {
		gmmInit := firstRows(e.gTable(), gmmK)
		if err := lp.phase("ml.gmm_s", func() (err error) {
			f.gmm, err = ml.GMM(s, in.g, gmmK, ml.GMMOptions{MaxIter: gmmIters, Tol: 1e-15, InitMeans: gmmInit})
			return err
		}); err != nil {
			return nil, fmt.Errorf("gmm: %w", err)
		}
		lp.perIter("ml.gmm.passes_per_iter", f.gmm.Iters)
	}
	return f, nil
}

// check compares every fit of the round with its plain-Go reference.
// The references that depend only on the seed (correlation, the Lloyd run,
// GMM) are computed once per run; the k-means and logistic checks that
// depend on the returned model run every round, side by side.
func (e *env) check(in *fitInputs, f *fits) error {
	xt := e.xTable()
	if f.km.Iters != kmIters || f.lr.Iters != lrIters {
		return checkError{fmt.Errorf("fits ran %d k-means and %d logistic iterations, want %d and %d",
			f.km.Iters, f.lr.Iters, kmIters, lrIters)}
	}
	assign, err := f.km.Assign.AsVector()
	if err != nil {
		return fmt.Errorf("reading k-means assignments: %w", err)
	}
	if e.kmRef == nil {
		ref := referenceLloyd(xt, kmK, firstRows(xt, kmK).Data, kmIters)
		e.kmRef = &ref
	}
	var kmErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		kmErr = checkKMeans(xt, kmK, *e.kmRef, f.km.Centers.Data, assign, f.km.Sizes, f.km.Objective)
	}()
	lrErr := checkLogistic(xt, e.yFunc(), f.lr.W, f.lr.LogLoss)
	wg.Wait()
	if err := checked(kmErr, lrErr); err != nil {
		return err
	}
	if f.corr != nil {
		if e.corrRef == nil {
			e.corrRef = correlationRef(xt)
		}
		if err := compareCorrelation(fitP, e.corrRef, f.corr.Data); err != nil {
			return checkError{err}
		}
	}
	if f.gmm != nil {
		if f.gmm.Iters != gmmIters {
			return checkError{fmt.Errorf("gmm ran %d iterations, want %d", f.gmm.Iters, gmmIters)}
		}
		if e.gmmRef == nil {
			ref := referenceEM(e.gTable(), gmmK, firstRows(e.gTable(), gmmK).Data, gmmIters)
			e.gmmRef = &ref
		}
		got := gmmFit{weights: f.gmm.Weights, means: f.gmm.Means.Data, logLike: f.gmm.LogLike}
		return checked(compareGMM(gmmK, *e.gmmRef, got))
	}
	return nil
}

// closeSession closes s if set-up got as far as opening it.
func closeSession(s *flashr.Session) {
	if s != nil {
		s.Close()
	}
}

func fitMemRound(e *env, r *roundOut) error {
	lp := newLayerProbe(e, r)
	var s *flashr.Session
	defer func() { closeSession(s) }()
	var in *fitInputs
	if err := r.setup(func() (err error) {
		if s, err = flashr.NewSession(flashr.Options{Workers: e.workers}); err != nil {
			return err
		}
		in, err = e.generate(s, true)
		return err
	}); err != nil {
		return err
	}
	lp.start(s)
	f, err := e.runFits(s, in, lp, true, true)
	if err != nil {
		return err
	}
	lp.stop()
	return e.check(in, f)
}

func fitShardRound(e *env, r *roundOut) error {
	lp := newLayerProbe(e, r)
	var s *flashr.Session
	defer func() { closeSession(s) }()
	var in *fitInputs
	if err := r.setup(func() (err error) {
		if s, err = flashr.NewSession(flashr.Options{Workers: e.workers, Sharding: &flashr.ShardConfig{Shards: 2}}); err != nil {
			return err
		}
		if in, err = e.generate(s, false); err != nil {
			return err
		}
		// Push the leaves to the workers: set-up ends with the inputs
		// resident on both shards.
		sx, sy := flashr.Sum(in.x), flashr.Sum(in.y)
		if _, err = sx.Float(); err != nil {
			return err
		}
		_, err = sy.Float()
		return err
	}); err != nil {
		return err
	}
	lp.start(s)
	f, err := e.runFits(s, in, lp, false, false)
	if err != nil {
		return err
	}
	lp.stop()
	return e.check(in, f)
}

// derivedVal is element (i, j) of the tall matrix fit-ssd saves: sqrt(|x|),
// correctly rounded in Go as in the engine, so the two agree bit for bit.
func (e *env) derivedVal(i int64, j int) float64 {
	return math.Sqrt(math.Abs(xVal(e.seed, i, j)))
}

func derive(x *flashr.FM) *flashr.FM { return flashr.Sqrt(flashr.Abs(x)) }

func fitSSDRound(e *env, r *roundOut) error {
	lp := newLayerProbe(e, r)
	var s *flashr.Session
	defer func() {
		closeSession(s)
		for d := 0; d < ssdDrives; d++ {
			os.RemoveAll(filepath.Join(e.dir, fmt.Sprintf("ssd-%02d", d)))
		}
	}()
	var in *fitInputs
	if err := r.setup(func() (err error) {
		dirs := make([]string, ssdDrives)
		for d := range dirs {
			dirs[d] = filepath.Join(e.dir, fmt.Sprintf("ssd-%02d", d))
			if err := os.MkdirAll(dirs[d], 0o755); err != nil {
				return err
			}
		}
		if s, err = flashr.NewSession(flashr.Options{
			Workers: e.workers, EM: true, SSDDirs: dirs,
			ReadMBps: ssdReadMBps, WriteMBps: ssdWriteMBps,
		}); err != nil {
			return err
		}
		in, err = e.generate(s, false)
		return err
	}); err != nil {
		return err
	}
	lp.start(s)
	f, err := e.runFits(s, in, lp, true, false)
	if err != nil {
		return err
	}
	// Persistence beside the reads: save a derived tall matrix, then reopen
	// it, scrub it and scan it once.
	if err := lp.save(func() error {
		return s.SaveNamed(derive(in.x), "derived")
	}); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	var z *flashr.FM
	var reps []safs.VerifyReport
	var colSums []float64
	if err := lp.phase("persist.reopen_s", func() (err error) {
		if z, err = s.OpenNamed("derived"); err != nil {
			return err
		}
		if reps, err = lp.verify(func() ([]safs.VerifyReport, error) { return s.VerifyNamed("derived") }); err != nil {
			return err
		}
		colSums, err = flashr.ColSums(z).AsVector()
		return err
	}); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	lp.stop()
	// The in-place checkpoint re-save is in the ledger but in no metric:
	// it fails today (see README), and nothing after it reads "ckpt".
	r.op("ckpt-save", s.SaveNamed(f.km.Assign, "ckpt"))
	r.op("ckpt-resave", resaveInPlace(s, "ckpt"))
	if err := e.check(in, f); err != nil {
		return err
	}
	return e.checkSaved(z, reps, colSums, in.n)
}

// resaveInPlace saves a named matrix over itself.
func resaveInPlace(s *flashr.Session, name string) error {
	c, err := s.OpenNamed(name)
	if err != nil {
		return err
	}
	return s.SaveNamed(c, name)
}

// savedSample is the fixed set of rows compared bit for bit after reopening:
// the first and last partitions' edges and a stride through the middle.
func savedSample(n int64) []int64 {
	var idx []int64
	for i := int64(0); i < n; i += n / 97 {
		idx = append(idx, i)
	}
	return append(idx, n-1)
}

func (e *env) checkSaved(z *flashr.FM, reps []safs.VerifyReport, colSums []float64, n int64) error {
	if len(reps) == 0 {
		return checkError{fmt.Errorf("VerifyNamed reported no files")}
	}
	for _, rep := range reps {
		if len(rep.Corrupt) > 0 || rep.Verified != rep.Stripes {
			return checkError{fmt.Errorf("VerifyNamed %s: %d corrupt, %d/%d stripes verified",
				rep.File, len(rep.Corrupt), rep.Verified, rep.Stripes)}
		}
	}
	idx := savedSample(n)
	rows, err := flashr.GetRows(z, idx)
	if err != nil {
		return fmt.Errorf("reading saved rows: %w", err)
	}
	for k, i := range idx {
		if err := checkRowsExact("saved matrix", rows.Row(k), i, fitP, e.derivedVal); err != nil {
			return checkError{err}
		}
	}
	want := make([]float64, fitP)
	for i := int64(0); i < n; i++ {
		for j := range want {
			want[j] += e.derivedVal(i, j)
		}
	}
	for j := range want {
		if !relClose(colSums[j], want[j], 1e-9) {
			return checkError{fmt.Errorf("scan of saved matrix: column %d sums to %v, reference %v", j, colSums[j], want[j])}
		}
	}
	return nil
}
