package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Compare mode reads run outputs saved as DIR/<workload>.<seed>.json (each
// run's standard output; sweep.sh writes them) and prints, for every workload
// and end-to-end metric, the median and quartiles of each set. With one
// directory it checks that each spread (interquartile range over the median)
// stays within the metric's bound in BENCHMARK.json; the spread of setup_s is
// printed but has no bound. With two it also checks that the second median is
// not worse than the first by more than the bound, and that both sets failed
// the same share of their operations. A run that printed no result, reported
// a wrong answer or lacks an end-to-end metric fails the comparison, and so
// does a workload that one set has and the other lacks.
//
//	perfbench compare [-bench BENCHMARK.json] DIR [DIR2]

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// savedRun is one run's output file; res is nil if the run printed no result.
type savedRun struct {
	file string
	res  *result
}

// runSet is one directory of runs, by workload.
type runSet map[string][]savedRun

func loadRuns(dir string) (runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		run := savedRun{file: filepath.Base(f), res: &result{}}
		if err := json.Unmarshal(lines[len(lines)-1], run.res); err != nil || run.res.Attempted < 1 {
			run.res = nil
		}
		wl, _, _ := strings.Cut(run.file, ".")
		set[wl] = append(set[wl], run)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no run outputs", dir)
	}
	return set, nil
}

// quartiles returns Q1, median and Q3 as Python's statistics.quantiles(v,
// n=4) computes them.
func quartiles(v []float64) (q1, med, q3 float64) {
	return quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
}

func compareMain(args []string) int {
	specPath := "BENCHMARK.json"
	if len(args) > 1 && args[0] == "-bench" {
		specPath, args = args[1], args[2:]
	}
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] DIR [DIR2]")
		return 2
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var sets []runSet
	for _, dir := range args {
		set, err := loadRuns(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		sets = append(sets, set)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	ok := true
	fail := func(format string, a ...any) {
		ok = false
		fmt.Fprintf(w, "  FAIL "+format+"\n", a...)
	}
	seen := map[string]bool{}
	var names []string
	for _, set := range sets {
		for wl := range set {
			if !seen[wl] {
				seen[wl] = true
				names = append(names, wl)
			}
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		var def *workload
		for _, c := range workloads {
			if c.name == wl {
				def = c
			}
		}
		fmt.Fprintf(w, "%s  (runs", wl)
		for _, set := range sets {
			fmt.Fprintf(w, " %d", len(set[wl]))
		}
		share := make([]float64, len(sets))
		for k, set := range sets {
			var att, failed int64
			for _, r := range set[wl] {
				if r.res != nil {
					att += r.res.Attempted
					failed += r.res.Failed
				}
			}
			if att > 0 {
				share[k] = float64(failed) / float64(att)
			}
		}
		fmt.Fprintf(w, ", failed share %v)\n", share)
		if def == nil {
			fail("no such workload")
			continue
		}
		for k, set := range sets {
			if len(set[wl]) == 0 {
				fail("set %d has no runs", k+1)
			}
			for _, r := range set[wl] {
				switch {
				case r.res == nil:
					fail("set %d: %s holds no result (the run did not complete)", k+1, r.file)
				case !r.res.Correct:
					fail("set %d: %s reported wrong answers", k+1, r.file)
				default:
					for _, m := range spec.EndToEnd {
						if v, has := r.res.Metrics[m.Name]; !has || v.Unit != m.Unit {
							fail("set %d: %s lacks metric %s in %s", k+1, r.file, m.Name, m.Unit)
						}
					}
				}
			}
		}
		if len(sets) == 2 && share[0] != share[1] {
			fail("failed share differs")
		}
		for _, m := range spec.EndToEnd {
			var meds [2]float64
			line := fmt.Sprintf("  %-14s", m.Name)
			for k, set := range sets {
				var vals []float64
				for _, r := range set[wl] {
					if r.res == nil {
						continue
					}
					if v, has := r.res.Metrics[m.Name]; has {
						vals = append(vals, v.Value)
					}
				}
				if len(vals) == 0 {
					line += fmt.Sprintf("  set %d: none", k+1)
					ok = false
					continue
				}
				q1, med, q3 := quartiles(vals)
				meds[k] = med
				spread := (q3 - q1) / med
				verdict := "ok"
				switch {
				case m.Name == "setup_s":
					verdict = "unbounded"
				case spread > m.Bound:
					verdict, ok = "FAIL", false
				}
				line += fmt.Sprintf("  med %.4g [%.4g, %.4g] %s spread %.3f/%.2f %s", med, q1, q3, m.Unit, spread, m.Bound, verdict)
			}
			if len(sets) == 2 && meds[0] != 0 && meds[1] != 0 {
				worse := (meds[1] - meds[0]) / meds[0]
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := "agree"
				if worse > m.Bound {
					verdict, ok = "WORSE", false
				}
				line += fmt.Sprintf("  change %+.3f %s", worse, verdict)
			}
			fmt.Fprintln(w, line)
		}
	}
	if !ok {
		fmt.Fprintln(w, "RESULT: outside bounds")
		return 1
	}
	fmt.Fprintln(w, "RESULT: within bounds")
	return 0
}
