package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	flashr "repro"
	"repro/internal/core"
	"repro/internal/safs"
	"repro/internal/trace"
)

// phaseUnits lists the per-layer metrics a traced run takes from its
// untraced rounds: the time of each call into ml and persistence, and the
// serving figures of the client loop. A workload that makes no such call
// reports 0.
var phaseUnits = map[string]string{
	"ml.correlation_s": "s",
	"ml.kmeans_s":      "s",
	"ml.logistic_s":    "s",
	"ml.gmm_s":         "s",
	"persist.save_s":   "s",
	"persist.reopen_s": "s",
	"serve.rps":        "req/s",
	"serve.p50_ms":     "ms",
	"serve.p99_ms":     "ms",
}

// layerUnits lists every other per-layer metric with its unit, taken from
// the traced rounds. A traced run reports all of them on every workload; a
// layer the workload does not exercise reads 0.
var layerUnits = map[string]string{
	"ml.kmeans.passes_per_iter":   "passes",
	"ml.logistic.passes_per_iter": "passes",
	"ml.gmm.passes_per_iter":      "passes",

	"core.compute_s":          "s",
	"core.nodes_executed":     "count",
	"core.passes":             "count",
	"core.cache_hit_ratio":    "ratio",
	"core.cse_unifications":   "count",
	"core.rewrites":           "count",
	"core.cache_hit_mb":       "MB",
	"core.plan_s":             "s",
	"core.admit_wait_s":       "s",
	"core.publish_s":          "s",
	"safs.read_mb":            "MB",
	"safs.read_wait_s":        "s",
	"safs.prefetch_hit_ratio": "ratio",
	"safs.verify_s":           "s",
	"safs.written_mb":         "MB",
	"safs.write_stall_s":      "s",
	"safs.write_s":            "s",
	"safs.writeback_s":        "s",
	"safs.io_retries":         "count",

	"persist.save_mb_per_s": "MB/s",
	"persist.verify_s":      "s",

	"repl.parse_estimate_us": "us",

	"serve.queue_wait_ms":      "ms",
	"serve.exec_ms":            "ms",
	"serve.batch_size":         "requests",
	"serve.passes_per_request": "passes",
	"serve.other_ms":           "ms",
	"serve.fetch_ms":           "ms",

	"shard.passes":  "count",
	"shard.sent_mb": "MB",
	"shard.recv_mb": "MB",
	"shard.exec_s":  "s",
	"shard.retries": "count",

	"trace.overhead_ratio": "ratio",
}

// benchSpan is one span the benchmark records around its own calls into a
// layer (an ml fit, a persistence call, an HTTP request batch).
type benchSpan struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Round  int     `json:"round"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// traceSink keeps a traced run's spans in memory until the run ends.
type traceSink struct {
	epoch  time.Time
	round  int
	engine []*trace.Data
	spans  []benchSpan
}

func (t *traceSink) span(name, parent string, t0, t1 time.Time) {
	t.spans = append(t.spans, benchSpan{name, parent, t.round,
		t0.Sub(t.epoch).Seconds(), t1.Sub(t.epoch).Seconds()})
}

// layerProbe takes MaterializeStats and SAFS deltas around a round's timed
// calls and, in a traced round, the engine's span trace.
type layerProbe struct {
	e    *env
	r    *roundOut
	eng  *core.Engine
	fs   *safs.FS
	st0  core.MaterializeStats
	fs0  safs.Stats
	last core.MaterializeStats // delta of the latest phase
}

func newLayerProbe(e *env, r *roundOut) *layerProbe { return &layerProbe{e: e, r: r} }

func (lp *layerProbe) fsStats() safs.Stats {
	if lp.fs == nil {
		return safs.Stats{}
	}
	return lp.fs.Stats()
}

// start begins the timed part of a round on session s.
func (lp *layerProbe) start(s *flashr.Session) {
	lp.eng, lp.fs = s.Engine(), s.FS()
	if lp.e.traced {
		if lp.e.trace.epoch.IsZero() {
			lp.e.trace.epoch = time.Now()
		}
		lp.eng.StartTrace()
	}
	lp.st0, lp.fs0 = lp.eng.TotalMaterializeStats(), lp.fsStats()
}

// phase times one call as per-layer metric name and keeps its stats delta.
func (lp *layerProbe) phase(name string, f func() error) error {
	before := lp.eng.TotalMaterializeStats()
	t0 := time.Now()
	err := lp.r.phase(name, f)
	lp.last = lp.eng.TotalMaterializeStats().Sub(before)
	if lp.e.traced {
		lp.e.trace.span(name, "round", t0, time.Now())
	}
	return err
}

// save is phase for the save call; it also rates the bytes written.
func (lp *layerProbe) save(f func() error) error {
	fs0 := lp.fsStats()
	err := lp.phase("persist.save_s", f)
	if lp.e.traced {
		d := lp.fsStats().BytesWritten - fs0.BytesWritten
		lp.r.layers["persist.save_mb_per_s"] = float64(d) / 1e6 / lp.r.times["persist.save_s"]
	}
	return err
}

// verify times a VerifyNamed scrub.
func (lp *layerProbe) verify(f func() ([]safs.VerifyReport, error)) ([]safs.VerifyReport, error) {
	t0 := time.Now()
	reps, err := f()
	if lp.e.traced {
		t1 := time.Now()
		lp.r.layers["persist.verify_s"] = t1.Sub(t0).Seconds()
		lp.e.trace.span("verify", "persist.reopen_s", t0, t1)
	}
	return reps, err
}

// perIter records the latest phase's passes per fit iteration.
func (lp *layerProbe) perIter(name string, iters int) {
	if lp.e.traced && iters > 0 {
		lp.r.layers[name] = float64(lp.last.Passes) / float64(iters)
	}
}

// stop ends the timed part of the round and, in a traced round, derives
// the core, SAFS and shard layer values from the window's deltas and spans.
func (lp *layerProbe) stop() {
	if !lp.e.traced {
		return
	}
	d := lp.eng.TotalMaterializeStats().Sub(lp.st0)
	fd := lp.fsStats()
	data := lp.eng.StopTrace()
	lp.e.trace.engine = append(lp.e.trace.engine, data)
	L := lp.r.layers
	L["core.passes"] = float64(d.Passes)
	L["core.nodes_executed"] = float64(d.NodesExecuted)
	L["core.cache_hit_ratio"] = ratio(d.CacheHits, d.CacheHits+d.CacheMisses)
	L["core.cse_unifications"] = float64(d.CSEUnifications)
	L["core.rewrites"] = float64(d.Rewrites)
	L["core.cache_hit_mb"] = float64(d.CacheHitBytes) / 1e6
	L["safs.read_mb"] = float64(fd.BytesRead-lp.fs0.BytesRead) / 1e6
	L["safs.written_mb"] = float64(fd.BytesWritten-lp.fs0.BytesWritten) / 1e6
	L["safs.verify_s"] = (fd.VerifyTime - lp.fs0.VerifyTime).Seconds()
	L["safs.io_retries"] = float64(fd.Retries - lp.fs0.Retries)
	L["safs.read_wait_s"] = d.ReadWait.Seconds()
	L["safs.prefetch_hit_ratio"] = ratio(d.PrefetchHits, d.PrefetchHits+d.PrefetchMisses)
	L["safs.write_stall_s"] = d.WriteStall.Seconds()
	L["safs.write_s"] = d.WriteTime.Seconds()
	L["shard.passes"] = float64(d.ShardPasses)
	L["shard.sent_mb"] = float64(d.ShardBytesSent) / 1e6
	L["shard.recv_mb"] = float64(d.ShardBytesRecv) / 1e6
	L["shard.retries"] = float64(d.ShardRetries)
	for k, v := range spanTimes(data) {
		L[k] = v
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// spanTimes sums the engine's span durations by layer: compute as self
// time (span minus the spans nested directly in it on the same lane),
// planning as the cache-lookup spans that enclose rewriting, and the
// admission, publish, shard-exec and async write-back spans whole.
func spanTimes(d *trace.Data) map[string]float64 {
	out := map[string]float64{}
	if d == nil {
		return out
	}
	type lane struct {
		pass  int64
		track int32
	}
	byLane := map[lane][]trace.Event{}
	for _, ev := range d.Events {
		k := lane{ev.Pass, ev.Track}
		byLane[k] = append(byLane[k], ev)
	}
	for _, evs := range byLane {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].End > evs[j].End
		})
		self := make([]int64, len(evs))
		var stack []int
		for i, ev := range evs {
			self[i] = ev.End - ev.Start
			for len(stack) > 0 && evs[stack[len(stack)-1]].End < ev.End {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				self[stack[len(stack)-1]] -= ev.End - ev.Start
			}
			stack = append(stack, i)
		}
		for i, ev := range evs {
			dur := float64(ev.End-ev.Start) / 1e9
			switch ev.Kind {
			case trace.KindCompute:
				out["core.compute_s"] += float64(self[i]) / 1e9
			case trace.KindCacheLookup:
				out["core.plan_s"] += dur
			case trace.KindAdmit:
				out["core.admit_wait_s"] += dur
			case trace.KindPublish:
				out["core.publish_s"] += dur
			case trace.KindShard:
				out["shard.exec_s"] += dur
			case trace.KindWriteBack:
				if trace.IsWriterTrack(ev.Track) {
					out["safs.writeback_s"] += dur
				}
			}
		}
	}
	return out
}

// layerMetrics turns a traced run's rounds into the per-layer metrics: the
// median over untraced rounds of each phase time, the median over traced
// rounds of each layer value, and tracing overhead as the median traced over
// the median untraced timed time. It writes the engine trace as Chrome JSON
// and the benchmark's spans beside it, after checking that the Chrome file
// parses back into a well-formed trace.
func layerMetrics(e *env, rounds []*roundOut, out map[string]metric) error {
	phases, vals := map[string][]float64{}, map[string][]float64{}
	var on, off []float64
	for i, r := range rounds {
		// rounds[0] is the first round after the warm-up, untraced.
		if i%2 == 0 {
			off = append(off, r.timed)
			for k, v := range r.times {
				phases[k] = append(phases[k], v)
			}
			continue
		}
		on = append(on, r.timed)
		for k, v := range r.layers {
			vals[k] = append(vals[k], v)
		}
	}
	for name, unit := range phaseUnits {
		out[name] = metric{median(phases[name]), unit}
	}
	for name, unit := range layerUnits {
		out[name] = metric{median(vals[name]), unit}
	}
	out["trace.overhead_ratio"] = metric{median(on) / median(off), "ratio"}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, e.trace.engine...); err != nil {
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	parsed, err := trace.ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return checkError{fmt.Errorf("chrome trace does not parse: %w", err)}
	}
	if err := trace.Verify(parsed); err != nil {
		return checkError{fmt.Errorf("chrome trace: %w", err)}
	}
	base := filepath.Join(filepath.Dir(e.dir), "trace-"+e.workload)
	if err := os.WriteFile(base+".json", buf.Bytes(), 0o644); err != nil {
		return err
	}
	spans, err := json.Marshal(e.trace.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(base+".spans.json", spans, 0o644)
}
