package main

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/obs"
)

// Workloads. Each loads mostly one group of layers, so a change to one
// layer shows on one workload and not on the others.
var workloadNames = []string{"rewrite-corpus", "validate-hot", "serve-mixed"}

// Serving configuration: surid's defaults on a 2-CPU host, with an LRU
// cache smaller than the stream's distinct cacheable requests so the
// stream mixes hits and misses.
const (
	serveWorkers = 2
	cacheEntries = 32
	flightEvents = 4096
)

type workload struct {
	name    string
	callers int
	jobs    []*job // distinct operations, verified before timing
	stream  []*job // operation order, cycled by the timed window
}

// build makes a workload's inputs from its seed. Program generation and
// compilation are the load generator's work and are not timed.
func build(name string, seed int64) (*workload, error) {
	w := &workload{name: name, callers: 1}
	switch name {
	case "rewrite-corpus":
		bins, err := corpus(seed)
		if err != nil {
			return nil, err
		}
		for _, b := range bins {
			w.jobs = append(w.jobs, &job{in: b})
		}
	case "validate-hot":
		bins, err := hotSet(seed)
		if err != nil {
			return nil, err
		}
		for _, b := range bins {
			w.jobs = append(w.jobs, &job{in: b, validate: true})
		}
	case "serve-mixed":
		bins, err := corpus(seed)
		if err != nil {
			return nil, err
		}
		w.callers = serveWorkers
		w.stream, w.jobs, err = serveStream(seed, bins)
		return w, err
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	r := rand.New(rand.NewSource(seed ^ 0x0de5))
	for _, i := range r.Perm(len(w.jobs)) {
		w.stream = append(w.stream, w.jobs[i])
	}
	return w, nil
}

func (w *workload) serving() bool { return w.name == "serve-mixed" }

// warmJobs are set-up's warm-up operations, one per distinct input
// binary: every job, except on serve-mixed, where each binary's first
// unvalidated request stands for the requests on it.
func (w *workload) warmJobs() []*job {
	if !w.serving() {
		return w.jobs
	}
	seen := map[*binaryIn]bool{}
	var out []*job
	for _, j := range w.jobs {
		if !j.validate && !seen[j.in] {
			seen[j.in] = true
			out = append(out, j)
		}
	}
	return out
}

// valInputs are the inputs a validated run of j executes: the program's
// own inputs, except over HTTP, where surid validates on no input.
func (w *workload) valInputs(j *job) [][]byte {
	if w.serving() {
		return nil
	}
	return j.in.prog.inputBytes()
}

// system is a started workload: what setup builds and the window
// drives. run performs one operation and returns its latency and
// whether its output was right; checking is not part of the latency.
type system struct {
	run   func(caller int, j *job) (time.Duration, bool)
	close func()
}

// start builds the system a workload runs against: nothing beyond the
// library for the direct-call workloads, and for serve-mixed a pool,
// cache and HTTP server on a loopback listener.
func (w *workload) start() *system {
	if w.serving() {
		s := startServer(cacheEntries, nil)
		s.expect(w.jobs)
		return &system{close: s.close, run: func(c int, j *job) (time.Duration, bool) {
			r := s.do(c, j, nil)
			return r.rtt, r.ok
		}}
	}
	inputs := make(map[*job][][]byte, len(w.jobs))
	for _, j := range w.jobs {
		inputs[j] = w.valInputs(j)
	}
	return &system{close: func() {}, run: func(_ int, j *job) (time.Duration, bool) {
		t := time.Now()
		if j.validate {
			v, err := core.RewriteValidated(j.in.bin, core.ValidateOptions{Inputs: inputs[j]})
			d := time.Since(t)
			return d, err == nil && v.Verdict == core.VerdictValidated && bytes.Equal(v.Binary, j.want)
		}
		res, err := core.Rewrite(j.in.bin, core.Options{})
		d := time.Since(t)
		return d, err == nil && bytes.Equal(res.Binary, j.want)
	}}
}

// server is an in-process surid over loopback with one keep-alive
// client connection per caller.
type server struct {
	ts      *httptest.Server
	pool    *farm.Pool
	clients []*http.Client
	bufs    []bytes.Buffer
	tr      *tracer
	want    map[*job][]byte // expected JSON "binary" field per job
}

func startServer(entries int, tr *tracer) *server {
	col := obs.New().EnableFlight(flightEvents)
	cache, err := farm.NewCache(entries, "")
	if err != nil {
		panic(err) // a memory-only cache cannot fail to open
	}
	pool := farm.New(farm.Config{Workers: serveWorkers, Cache: cache, Obs: col})
	var h http.Handler = farm.NewServer(pool, farm.ServerOptions{})
	if tr != nil {
		h = tr.handler(h)
	}
	s := &server{ts: httptest.NewServer(h), pool: pool, tr: tr, want: map[*job][]byte{}}
	for c := 0; c < serveWorkers; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}})
	}
	s.bufs = make([]bytes.Buffer, serveWorkers)
	return s
}

func (s *server) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.ts.Close()
	s.pool.Close()
}

// expect precomputes the response fragments that prove a job's answer
// correct, so checking a response allocates nothing.
func (s *server) expect(jobs []*job) {
	for _, j := range jobs {
		s.want[j] = []byte(`"binary":"` + base64.StdEncoding.EncodeToString(j.want) + `"`)
	}
}

var (
	validatedField = []byte(`"verdict":"validated"`)
	hitField       = []byte(`"cache_hit":true`)
	coalescedField = []byte(`"coalesced":true`)
)

// reply is what the benchmark learns from one response.
type reply struct {
	ok, hit, coalesced bool
	rtt                time.Duration // request sent to response body read
}

// do sends one request for j on caller c's connection and checks the
// response: status 200, the verified binary, and for validated
// requests the verdict "validated". With a tracer, the round trip is a
// serve.http span under op's root span op[1], whose child the handler
// records; both close once the body is read, before the checks.
func (s *server) do(c int, j *job, op *[2]int) reply {
	t := time.Now()
	url := s.ts.URL + "/rewrite"
	switch {
	case j.passes != "" && j.validate:
		url += "?instrument=" + j.passes + "&validate=1"
	case j.passes != "":
		url += "?instrument=" + j.passes
	case j.validate:
		url += "?validate=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(j.in.bin))
	if err != nil {
		return reply{}
	}
	span := -1
	if op != nil {
		span = s.tr.open("serve.http", op[0], op[1])
		req.Header.Set(spanHeader, strconv.Itoa(op[0])+"."+strconv.Itoa(span))
	}
	buf := &s.bufs[c]
	buf.Reset()
	resp, err := s.clients[c].Do(req)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	if span >= 0 {
		s.tr.close(span)
		s.tr.close(op[1])
	}
	rtt := time.Since(t)
	if err != nil {
		return reply{rtt: rtt}
	}
	body := buf.Bytes()
	ok := resp.StatusCode == http.StatusOK && bytes.Contains(body, s.want[j])
	if j.validate {
		ok = ok && bytes.Contains(body, validatedField)
	}
	return reply{ok: ok, hit: bytes.Contains(body, hitField), coalesced: bytes.Contains(body, coalescedField), rtt: rtt}
}
