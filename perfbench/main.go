// Command perfbench is the repository's benchmark. One invocation runs one
// workload in one process for a fixed time and prints, as its last line, a
// JSON object with the operations it attempted and failed and its metrics:
// the end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
//
//	perfbench -workload fit-ssd -seed 1 -seconds 25 -trace 0
//	perfbench compare OLD_DIR NEW_DIR
//
// A run repeats whole rounds until -seconds have passed, the first of them a
// warm-up in no metric (at least two rounds; three in traced mode). A round
// builds its own sessions and inputs, so no round sees another's result
// cache. The end-to-end metrics are the same on every workload: the median
// over the run's rounds of the round's set-up time and of the time of its
// timed phases, and the process's peak resident set. See README.md for the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// roundOut is what one round measured.
type roundOut struct {
	// setupTime is the round's set-up time: setup_s.
	setupTime float64
	// times holds the round's phase times and serving figures by per-layer
	// metric name (ml.kmeans_s, serve.p99_ms, ...).
	times map[string]float64
	// layers holds per-layer values of a traced round.
	layers map[string]float64
	// timed is the sum of the round's timed phases: round_s.
	timed float64

	attempted, failed int64
}

func newRound() *roundOut {
	return &roundOut{times: map[string]float64{}, layers: map[string]float64{}}
}

// setup times a round's set-up. Like phase, it first collects the garbage
// the previous work left, so no timed call pays for another's.
func (r *roundOut) setup(f func() error) error {
	runtime.GC()
	t0 := time.Now()
	err := f()
	r.setupTime = time.Since(t0).Seconds()
	return err
}

// op records one attempted operation in the round's ledger.
func (r *roundOut) op(name string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "operation %s failed: %v\n", name, err)
	}
}

// phase times f as per-layer metric name, adds its duration to the round's
// timed total and records it in the ledger.
func (r *roundOut) phase(name string, f func() error) error {
	runtime.GC()
	t0 := time.Now()
	err := f()
	d := time.Since(t0).Seconds()
	r.timed += d
	r.times[name] = d
	r.op(name, err)
	return err
}

// env is the state a round needs from its run.
type env struct {
	workload string
	seed     int64
	workers  int
	dir      string // working directory of this run, inside the checkout
	traced   bool   // this round records spans
	trace    *traceSink

	// Made once per run for the checks: the references that depend only
	// on the seed, and the serving tenants' CSV files.
	corrRef   []float64
	kmRef     *kmeansRef
	gmmRef    *gmmFit
	servPaths []string
}

type workload struct {
	name  string
	round func(e *env, r *roundOut) error
}

var workloads = []*workload{
	{name: "fit-mem", round: fitMemRound},
	{name: "fit-ssd", round: fitSSDRound},
	{name: "fit-shard", round: fitShardRound},
	{name: "serve-mix", round: serveRound},
}

// endToEnd lists the end-to-end metrics with their units. Every workload
// reports all of them with -trace 0.
var endToEnd = map[string]string{"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: fit-mem, fit-ssd, fit-shard or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "how long to measure")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload fit-mem|fit-ssd|fit-shard|serve-mix, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		// A wrong answer is reported with correct false. Any other error
		// leaves the run incomplete, and an incomplete run prints no
		// result.
		if !errors.As(err, new(checkError)) {
			os.Exit(1)
		}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

func run(w *workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_work", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{workload: w.name, seed: seed, workers: runtime.NumCPU(), dir: dir}
	if traced {
		e.trace = &traceSink{}
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var rounds []*roundOut
	start := time.Now()
	// Round 0 warms up: the process's first round pays for growing its heap
	// and is slower than the rest, so it is in the ledger but in no metric. After it, a traced run alternates untraced and traced rounds,
	// so tracing overhead compares rounds of the same run.
	more := func(i int) bool { return i < 2 || time.Since(start) < dur || (traced && i < 3) }
	for i := 0; more(i); i++ {
		e.traced = traced && i > 0 && i%2 == 0
		if traced {
			e.trace.round = i
		}
		r := newRound()
		err := w.round(e, r)
		res.Attempted += r.attempted
		res.Failed += r.failed
		if err != nil {
			if errors.As(err, new(checkError)) {
				res.Correct = false
			}
			fmt.Fprintf(os.Stderr, "round %d: %v\n", i, err)
			return res, err
		}
		fmt.Fprintf(os.Stderr, "round %d: traced=%v setup=%.4fs timed=%.4fs %v\n", i, e.traced, r.setupTime, r.timed, r.times)
		if i > 0 {
			rounds = append(rounds, r)
		}
	}
	if traced {
		return res, layerMetrics(e, rounds, res.Metrics)
	}
	var setup, timed []float64
	for _, r := range rounds {
		setup = append(setup, r.setupTime)
		timed = append(timed, r.timed)
	}
	res.Metrics["setup_s"] = metric{median(setup), endToEnd["setup_s"]}
	res.Metrics["round_s"] = metric{median(timed), endToEnd["round_s"]}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), endToEnd["peak_rss_mb"]}
	return res, nil
}

// checkError marks a wrong answer, as opposed to an operation that failed.
type checkError struct{ err error }

func (c checkError) Error() string { return "check: " + c.err.Error() }

// checked wraps the first non-nil check result as a checkError.
func checked(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return checkError{err}
		}
	}
	return nil
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v (v is not modified) by the exclusive
// method of Python's statistics.quantiles: the value at rank q·(n+1),
// interpolated between neighbours and clamped to the smallest and largest.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	h := q * float64(len(s)+1)
	lo := math.Floor(h)
	if lo < 1 {
		return s[0]
	}
	if int(lo) >= len(s) {
		return s[len(s)-1]
	}
	return s[int(lo)-1] + (h-lo)*(s[int(lo)]-s[int(lo)-1])
}

// peakRSSMB is the process's peak resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
