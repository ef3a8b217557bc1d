package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	flashr "repro"
	"repro/internal/repl"
	"repro/internal/serve"
)

// serve-mix: two tenants, one closed-loop client each. Every client sends
// servReqs /v2 evals per round, cycling through four kinds of request:
//
//	0  a repeated scalar reduction    sum(pmax(x, c)), c from a set of four
//	1  a unique scalar reduction      sum(pmax(x, c)), c new per request
//	2  a repeated matrix statement    x * c, c from a set of four
//	3  a unique matrix statement      x * c, c new per request
//
// A matrix statement answers with a result handle; the client fetches
// fetchRows rows of it and releases it before its next eval.
const (
	servN     = 20_000
	servP     = 8
	servReqs  = 600
	fetchRows = 64
	tenants   = 2
)

var (
	repeatScalarC = []float64{0.5, 1.5, 2.5, 3.5}
	repeatMatrixC = []float64{0.5, 2, 4, 8}
)

// servProgram is request i of tenant t: its kind and constant.
func servProgram(t, i int) (kind int, c float64, src string) {
	kind = i % 4
	u := float64(t*servReqs + i + 1)
	switch kind {
	case 0:
		c = repeatScalarC[(i/4)%len(repeatScalarC)]
	case 1:
		c = (2*u + 1) / 8192 // below every repeated constant
	case 2:
		c = repeatMatrixC[(i/4)%len(repeatMatrixC)]
	case 3:
		c = 1 + u/4096
	}
	cs := strconv.FormatFloat(c, 'g', -1, 64)
	if kind < 2 {
		return kind, c, "sum(pmax(x, " + cs + "))"
	}
	return kind, c, "x * " + cs
}

func fetchRange(i int) (lo, hi int64) {
	lo = int64(i*131) % (servN - fetchRows)
	return lo, lo + fetchRows
}

// writeServInputs writes each tenant's matrix as CSV for load.dense. This is
// the benchmark's own preparation, done once per run and not timed.
func (e *env) writeServInputs() ([]string, error) {
	paths := make([]string, tenants)
	for t := range paths {
		paths[t] = filepath.Join(e.dir, fmt.Sprintf("tenant%d.csv", t))
		f, err := os.Create(paths[t])
		if err != nil {
			return nil, err
		}
		w := bufio.NewWriter(f)
		for i := int64(0); i < servN; i++ {
			for j := 0; j < servP; j++ {
				if j > 0 {
					w.WriteByte(',')
				}
				w.WriteString(strconv.FormatFloat(servVal(e.seed, t, i, j), 'g', -1, 64))
			}
			w.WriteByte('\n')
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// reply is what a client kept of one eval, checked after the round.
type reply struct {
	text  string    // scalar text
	rows  []float64 // fetched matrix rows
	lat   float64   // seconds, client side
	queue float64   // ms, server reported
	exec  float64   // ms, server reported
	batch float64
	fetch float64 // seconds
}

type client struct {
	base, session string
	hc            *http.Client
}

func (c *client) do(method, path string, body any) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, resp.Header, nil
}

type evalResp struct {
	Results []struct {
		Type   string `json:"type"`
		Text   string `json:"text"`
		Handle string `json:"handle"`
		NRow   int64  `json:"nrow"`
		NCol   int64  `json:"ncol"`
	} `json:"results"`
	BatchSize int     `json:"batch_size"`
	QueueMS   float64 `json:"queue_wait_ms"`
	ExecMS    float64 `json:"exec_ms"`
}

func (c *client) eval(program string) (*evalResp, error) {
	out, _, err := c.do("POST", "/v2/sessions/"+c.session+"/eval", map[string]string{"program": program})
	if err != nil {
		return nil, err
	}
	var er evalResp
	if err := json.Unmarshal(out, &er); err != nil {
		return nil, fmt.Errorf("eval %q: %w", program, err)
	}
	if len(er.Results) != 1 {
		return nil, fmt.Errorf("eval %q: %d results", program, len(er.Results))
	}
	return &er, nil
}

// loop runs one client's requests of a round and records them in rep. The
// ledger counts every eval, fetch and release.
func (c *client) loop(t int, rep []reply, r *roundOut, mu *sync.Mutex) error {
	op := func(name string, err error) error {
		mu.Lock()
		r.op(name, err)
		mu.Unlock()
		return err
	}
	for i := range rep {
		kind, _, src := servProgram(t, i)
		t0 := time.Now()
		er, err := c.eval(src)
		rep[i].lat = time.Since(t0).Seconds()
		if op("eval", err) != nil {
			return err
		}
		rep[i].queue, rep[i].exec, rep[i].batch = er.QueueMS, er.ExecMS, float64(er.BatchSize)
		res := er.Results[0]
		if kind < 2 {
			if res.Type != "value" {
				return checkError{fmt.Errorf("%q answered %q, want a value", src, res.Type)}
			}
			rep[i].text = res.Text
			continue
		}
		if res.Type != "matrix" || res.NRow != servN || res.NCol != servP {
			return checkError{fmt.Errorf("%q answered %s %dx%d, want a %dx%d matrix", src, res.Type, res.NRow, res.NCol, servN, servP)}
		}
		lo, hi := fetchRange(i)
		t1 := time.Now()
		body, hdr, err := c.do("GET", fmt.Sprintf("/v2/results/%s?rows=%d:%d&format=bin", res.Handle, lo, hi), nil)
		rep[i].fetch = time.Since(t1).Seconds()
		if op("fetch", err) != nil {
			return err
		}
		if hdr.Get("X-Flashr-Rows") != strconv.FormatInt(hi-lo, 10) || len(body) != int(hi-lo)*servP*8 {
			return checkError{fmt.Errorf("fetch of %q: %s rows, %d bytes", src, hdr.Get("X-Flashr-Rows"), len(body))}
		}
		rep[i].rows = make([]float64, len(body)/8)
		if err := binary.Read(bytes.NewReader(body), binary.LittleEndian, rep[i].rows); err != nil {
			return err
		}
		if _, _, err := c.do("DELETE", "/v2/results/"+res.Handle, nil); op("release", err) != nil {
			return err
		}
	}
	return nil
}

// checkServed compares every reply of tenant t with plain-Go values over
// the matrix the benchmark wrote for that tenant.
func (e *env) checkServed(t int, rep []reply) error {
	x := make([]float64, servN*servP)
	for i := int64(0); i < servN; i++ {
		for j := 0; j < servP; j++ {
			x[i*servP+int64(j)] = servVal(e.seed, t, i, j)
		}
	}
	sums := map[float64]float64{}
	for i := range rep {
		kind, c, src := servProgram(t, i)
		if kind < 2 {
			want, ok := sums[c]
			if !ok {
				for _, v := range x {
					want += math.Max(v, c)
				}
				sums[c] = want
			}
			if err := checkScalarText(src, rep[i].text, want); err != nil {
				return checkError{err}
			}
			continue
		}
		lo, _ := fetchRange(i)
		if err := checkRowsExact(src, rep[i].rows, lo, servP, func(i int64, j int) float64 {
			return x[i*servP+int64(j)] * c
		}); err != nil {
			return checkError{err}
		}
	}
	return nil
}

// server is one round's in-process serving stack.
type server struct {
	root *flashr.Session
	sv   *serve.Server
	hs   *http.Server
	done chan struct{}
	cs   []*client
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.sv != nil {
		s.sv.Drain(ctx)
	}
	if s.hs != nil {
		s.hs.Shutdown(ctx)
		<-s.done
	}
	for _, c := range s.cs {
		c.hc.CloseIdleConnections()
	}
	if s.root != nil {
		s.root.Close()
	}
}

func (e *env) startServer(paths []string) (*server, error) {
	s := &server{done: make(chan struct{})}
	var err error
	if s.root, err = flashr.NewSession(flashr.Options{Workers: e.workers}); err != nil {
		return s, err
	}
	// A pinned-bytes quota makes admission run the static estimator on
	// every request, as a deployment with quotas does.
	if s.sv, err = serve.New(serve.Config{
		Root:                    s.root,
		MaxEstimatedBytes:       1 << 30,
		MaxPinnedBytesPerTenant: 256 << 20,
	}); err != nil {
		return s, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.hs = &http.Server{Handler: s.sv}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	for t := 0; t < tenants; t++ {
		c := &client{base: "http://" + ln.Addr().String(), hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2},
		}}
		s.cs = append(s.cs, c)
		out, _, err := c.do("POST", "/v2/sessions", map[string]string{"tenant": fmt.Sprintf("tenant%d", t)})
		if err != nil {
			return s, err
		}
		var sess struct {
			Session string `json:"session"`
		}
		if err := json.Unmarshal(out, &sess); err != nil {
			return s, err
		}
		c.session = sess.Session
		if _, err := c.eval(fmt.Sprintf("x <- load.dense(%q)", paths[t])); err != nil {
			return s, err
		}
	}
	return s, nil
}

func serveRound(e *env, r *roundOut) error {
	if e.servPaths == nil {
		paths, err := e.writeServInputs()
		if err != nil {
			return err
		}
		e.servPaths = paths
	}
	lp := newLayerProbe(e, r)
	var s *server
	err := r.setup(func() (err error) {
		s, err = e.startServer(e.servPaths)
		return err
	})
	defer s.close()
	if err != nil {
		return err
	}
	lp.start(s.root)
	reps := make([][]reply, tenants)
	errs := make([]error, tenants)
	var mu sync.Mutex
	var wg sync.WaitGroup
	runtime.GC()
	t0 := time.Now()
	for t := range reps {
		reps[t] = make([]reply, servReqs)
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			errs[t] = s.cs[t].loop(t, reps[t], r, &mu)
		}(t)
	}
	wg.Wait()
	loop := time.Since(t0)
	r.timed = loop.Seconds()
	if e.traced {
		e.trace.span("client-loop", "round", t0, t0.Add(loop))
	}
	passes := lp.eng.TotalMaterializeStats().Sub(lp.st0).Passes
	lp.stop()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var lat, queue, exec, other, fetch []float64
	var batch float64
	for t := range reps {
		for _, q := range reps[t] {
			lat = append(lat, q.lat)
			queue = append(queue, q.queue)
			exec = append(exec, q.exec)
			other = append(other, q.lat*1e3-q.queue-q.exec)
			batch += q.batch
			if q.rows != nil {
				fetch = append(fetch, q.fetch)
			}
		}
	}
	// A round's tenants×servReqs latencies leave 12 samples above its p99.
	r.times["serve.rps"] = float64(len(lat)) / loop.Seconds()
	r.times["serve.p50_ms"] = median(lat) * 1e3
	r.times["serve.p99_ms"] = quantile(lat, 0.99) * 1e3
	if e.traced {
		L := r.layers
		L["serve.queue_wait_ms"] = median(queue)
		L["serve.exec_ms"] = median(exec)
		L["serve.other_ms"] = median(other)
		L["serve.fetch_ms"] = median(fetch) * 1e3
		L["serve.batch_size"] = batch / float64(len(lat))
		L["serve.passes_per_request"] = float64(passes) / float64(len(lat))
		t1 := time.Now()
		us, err := estimateMicros(s.root, e.servPaths[0])
		if err != nil {
			return err
		}
		e.trace.span("repl-estimate", "round", t1, time.Now())
		L["repl.parse_estimate_us"] = us
	}
	for t := range reps {
		if err := e.checkServed(t, reps[t]); err != nil {
			return err
		}
	}
	return nil
}

// estimateMicros is the median time of repl's static shape estimate over
// tenant 0's programs, against a binding of x like the served session's.
func estimateMicros(root *flashr.Session, path string) (float64, error) {
	env := repl.NewEnv(root)
	if _, err := env.Eval(fmt.Sprintf("x <- load.dense(%q)", path)); err != nil {
		return 0, err
	}
	us := make([]float64, servReqs)
	for i := range us {
		_, _, src := servProgram(0, i)
		t0 := time.Now()
		if _, ok := env.EstimateProgram([]string{src}); !ok {
			return 0, fmt.Errorf("no static estimate for %q", src)
		}
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(us), nil
}
