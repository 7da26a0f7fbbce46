package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Rounds of the traced run. On the direct-call workloads each round
// runs every distinct operation once untraced through the public API
// and once traced through the stage replay; on serve-mixed a round is a
// pair of an untraced and a traced run of the same requests. Untraced
// and traced runs alternate so host drift hits both alike.
const (
	traceRounds    = 3
	serveWarmReqs  = 200 // untimed requests that fill a fresh server's cache
	serveTraceReqs = 300 // requests per serving round
)

// counts are the layers' work counts over one pass of operations.
type counts struct {
	ops                     int
	blocks, insts           int
	copied, added           int
	tables, entries, truth  int
	relax, codePtrs, pinned int
	inserted                int
	validated               int
	emuSteps                uint64
}

func (c *counts) add(j *job, st *stages) {
	c.ops++
	gs := st.graph.Stats()
	c.blocks += gs.Blocks
	c.insts += gs.Instructions
	c.copied += st.copied
	c.added += st.added
	c.tables += st.sym.Tables
	if j.in.prog.trueTables > 0 && st.sym.Tables > 0 {
		c.entries += st.sym.NewEntries
		c.truth += j.in.prog.trueTables
	}
	c.relax += st.layout.RelaxRounds
	c.codePtrs += st.rep.CodePointers
	c.pinned += st.rep.Pinned
	if st.ins != nil {
		c.inserted += st.ins.Added
	}
	if j.validate {
		c.validated++
		c.emuSteps += st.emuSteps
	}
}

// replayJob replays j's operation as the workload runs it and checks
// the replayed bytes against core.Rewrite's verified output.
func (w *workload) replayJob(j *job, h hook) (*stages, error) {
	var st *stages
	var err error
	if j.validate {
		st, err = replayValidated(j.in.bin, j.passValues(), w.valInputs(j), h)
	} else {
		st, err = replayRewrite(j.in.bin, j.passValues(), h)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", j.name(), err)
	}
	if !bytes.Equal(st.out, j.want) {
		return nil, fmt.Errorf("%s: replay output differs from core.Rewrite", j.name())
	}
	return st, nil
}

// memoryPass replays each distinct operation once under a memory probe,
// keeping each operation's intermediates live to its end.
func (w *workload) memoryPass() (*memProbe, *counts, error) {
	p, c := newMemProbe(), &counts{}
	for _, j := range w.jobs {
		err := p.op(func(h hook) error {
			st, err := w.replayJob(j, h)
			if err != nil {
				return err
			}
			c.add(j, st)
			runtime.KeepAlive(st)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return p, c, nil
}

// traceResult is the traced run's outcome; any failed operation ends
// the traced run with an error instead.
type traceResult struct {
	metrics   map[string]float64
	attempted int
	summary   *summary
}

// traceRun measures the layers w's own operations reach. On the
// direct-call workloads every operation runs traceRounds times, once
// untraced through the public API and once replayed stage by stage with
// spans. On serve-mixed the requests are the operations; the pipeline
// work behind them is replayed once per distinct request, since the
// server's handler is opaque to the tracer. The emulator and serving
// layers that a workload's own operations skip are measured apart, by
// reachEmu and reachServe, so every per-layer metric is a number.
func traceRun(w *workload) (*traceResult, error) {
	mem, cnt, err := w.memoryPass()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	res := &traceResult{}
	var untraced, traced time.Duration // the workload's own operations
	attempts, calls := 0, 0
	rounds := traceRounds
	if w.serving() {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		for _, j := range w.jobs {
			res.attempted++
			t := time.Now()
			n, err := callJob(j, w.valInputs(j))
			untraced += time.Since(t)
			if err != nil {
				return nil, err
			}
			if j.validate {
				attempts += n
				calls++
			}
			t = time.Now()
			err = tr.op(j.kind(), func(h hook) error { _, err := w.replayJob(j, h); return err })
			traced += time.Since(t)
			if err != nil {
				return nil, err
			}
		}
	}
	var serve *serveTrace
	if w.serving() {
		untraced, traced = 0, 0 // the requests are the operations, not the replays
		if serve, err = w.traceServe(tr, &untraced, &traced); err != nil {
			return nil, err
		}
		res.attempted += serve.requests
	}

	s := tr.summarize()
	res.summary = s
	m := map[string]float64{}
	for _, l := range stageLayers {
		m[l+".ms"] = s.selfMs(l)
		m[l+".allocs"] = perCall(mem.allocs, mem.calls, l)
		m[l+".alloc_mb"] = perCall(mem.bytes, mem.calls, l) / 1e6
		m[l+".live_mb"] = perCall(mem.live, mem.calls, l) / 1e6
	}
	per := func(n int) float64 { return float64(n) / float64(cnt.ops) }
	m["cfg.blocks"] = per(cnt.blocks)
	m["cfg.instructions"] = per(cnt.insts)
	m["serialize.synth_ratio"] = ratio(cnt.added, cnt.copied)
	m["repair.code_pointers"] = per(cnt.codePtrs)
	m["repair.pinned"] = per(cnt.pinned)
	m["symbolize.tables"] = per(cnt.tables)
	m["symbolize.table_overapprox"] = ratio(cnt.entries, cnt.truth)
	m["emit.relax_rounds"] = per(cnt.relax)
	m["instr.inserted"] = per(cnt.inserted)

	er := &emuRun{s: s, mem: mem, cnt: cnt, attempts: attempts, calls: calls}
	if cnt.validated == 0 {
		if er, err = w.reachEmu(); err != nil {
			return nil, err
		}
		res.attempted += 2 * er.calls
	}
	er.metrics(m)
	ss := s
	if serve == nil {
		if ss, serve, err = w.reachServe(); err != nil {
			return nil, err
		}
		res.attempted += serve.requests
	}
	serveMetrics(m, ss, serve)

	m["trace.overhead_ratio"] = float64(traced) / float64(untraced)
	m["trace.coverage"] = res.summary.coverage()
	res.metrics = m
	return res, nil
}

// emuRun is what the emulator and validation metrics come from: a
// traced run and a memory pass that include validated operations, and
// the attempts of the untraced validated calls.
type emuRun struct {
	s               *summary
	mem             *memProbe
	cnt             *counts
	attempts, calls int
}

func (e *emuRun) metrics(m map[string]float64) {
	s, mem, cnt := e.s, e.mem, e.cnt
	emuNs := s.selfSum["emu.orig"] + s.selfSum["emu.rewritten"]
	steps := float64(cnt.emuSteps) / float64(cnt.validated)
	m["emu.orig_ms"] = s.selfMs("emu.orig")
	m["emu.rewritten_ms"] = s.selfMs("emu.rewritten")
	m["emu.steps"] = steps
	m["emu.minsts_per_s"] = steps * float64(s.perOp["emu.orig"]) / (float64(emuNs) / 1e9) / 1e6
	m["emu.alloc_mb"] = float64(mem.bytes["emu.orig"]+mem.bytes["emu.rewritten"]) / float64(cnt.validated) / 1e6
	m["validate.rewrite_ms"] = s.durMs("rewrite")
	m["validate.attempts"] = ratio(e.attempts, e.calls)
}

// serveMetrics sets the serving metrics from a traced serving run.
func serveMetrics(m map[string]float64, s *summary, serve *serveTrace) {
	m["serve.rtt_ms"] = s.durMs("serve.http")
	m["serve.handler_ms"] = s.durMs("serve.handler")
	m["serve.transport_ms"] = s.selfMs("serve.http")
	hitNs, missNs := serve.handlerNs(s)
	m["serve.hit_handler_ms"] = ratio64(hitNs, int64(serve.hits)) / 1e6
	m["serve.miss_handler_ms"] = ratio64(missNs, int64(serve.misses)) / 1e6
	m["farm.hit_ratio"] = ratio(serve.hits, serve.hits+serve.misses)
	m["farm.coalesced_ratio"] = ratio(serve.coalesced, serve.hits+serve.misses)
}

// reachEmu measures the emulator on a workload whose operations
// validate nothing: each program's first binary, rewritten and
// validated on the program's own inputs, once untraced through
// core.RewriteValidated for its attempts, once replayed with spans and
// once under the memory probe. It has its own tracer and probe, so it
// moves none of the workload's stage, coverage or overhead metrics.
func (w *workload) reachEmu() (*emuRun, error) {
	var jobs []*job
	seen := map[*program]bool{}
	for _, j := range w.jobs {
		if !seen[j.in.prog] {
			seen[j.in.prog] = true
			jobs = append(jobs, &job{in: j.in, passes: j.passes, validate: true, want: j.want})
		}
	}
	probe := &workload{name: w.name, jobs: jobs}
	mem, cnt, err := probe.memoryPass()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	attempts := 0
	for _, j := range jobs {
		n, err := callJob(j, probe.valInputs(j))
		if err != nil {
			return nil, err
		}
		attempts += n
		if err := tr.op(j.kind(), func(h hook) error { _, err := probe.replayJob(j, h); return err }); err != nil {
			return nil, err
		}
	}
	return &emuRun{s: tr.summarize(), mem: mem, cnt: cnt, attempts: attempts, calls: len(jobs)}, nil
}

// reachServe measures the serving layers on a workload that serves
// nothing: a fresh server receives each distinct binary twice in a row
// over one connection, a cache miss and then a hit. Like reachEmu it
// has its own tracer.
func (w *workload) reachServe() (*summary, *serveTrace, error) {
	var jobs []*job
	seen := map[binKey]bool{}
	for _, j := range w.jobs {
		if !seen[j.key()] {
			seen[j.key()] = true
			jobs = append(jobs, &job{in: j.in, passes: j.passes, want: j.want})
		}
	}
	tr := newTracer()
	st := &serveTrace{hitOp: map[int]bool{}}
	s := startServer(cacheEntries, tr)
	defer s.close()
	s.expect(jobs)
	for _, j := range jobs {
		for range 2 {
			st.traced(tr, s, 0, j)
		}
	}
	if st.failed > 0 {
		return nil, nil, fmt.Errorf("serve: %d of %d requests failed", st.failed, st.requests)
	}
	if st.hits != len(jobs) {
		return nil, nil, fmt.Errorf("serve: %d of %d repeated requests hit the cache", st.hits, len(jobs))
	}
	return tr.summarize(), st, nil
}

func (j *job) kind() string {
	if j.validate {
		return "validate"
	}
	return "rewrite"
}

// callJob runs j's operation untraced through the public API, checks it
// against the verified output, and returns the validation attempts.
func callJob(j *job, inputs [][]byte) (int, error) {
	if !j.validate {
		r, err := core.Rewrite(j.in.bin, core.Options{Passes: j.passValues()})
		if err == nil && !bytes.Equal(r.Binary, j.want) {
			err = fmt.Errorf("%s: output differs from the verified output", j.name())
		}
		return 0, err
	}
	v, err := core.RewriteValidated(j.in.bin, core.ValidateOptions{
		Options: core.Options{Passes: j.passValues()}, Inputs: inputs})
	if err == nil && (v.Verdict != core.VerdictValidated || !bytes.Equal(v.Binary, j.want)) {
		err = fmt.Errorf("%s: verdict %s: %s", j.name(), v.Verdict, v.Reason)
	}
	if err != nil {
		return 0, err
	}
	return v.Attempts, nil
}

func ratio(a, b int) float64 { return ratio64(int64(a), int64(b)) }

func ratio64(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serveTrace is the traced serving phase's bookkeeping.
type serveTrace struct {
	mu                      sync.Mutex
	hitOp                   map[int]bool // op -> served from cache, cacheable requests only
	requests, failed        int
	hits, misses, coalesced int
}

func (st *serveTrace) count(ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.requests++
	if !ok {
		st.failed++
	}
}

func (st *serveTrace) record(op int, j *job, r reply) {
	st.count(r.ok)
	st.mu.Lock()
	defer st.mu.Unlock()
	if j.validate {
		return
	}
	st.hitOp[op] = r.hit
	if r.hit {
		st.hits++
	} else {
		st.misses++
	}
	if r.coalesced {
		st.coalesced++
	}
}

// traced sends one request for j on connection c as a traced operation
// and records its reply.
func (st *serveTrace) traced(tr *tracer, s *server, c int, j *job) reply {
	op := tr.newOp()
	r := s.do(c, j, &[2]int{op, tr.open("request", op, -1)})
	st.record(op, j, r)
	return r
}

// handlerNs splits handler time between cache hits and misses.
func (st *serveTrace) handlerNs(s *summary) (hit, miss int64) {
	for i := range s.spans {
		sp := &s.spans[i]
		hitReq, cacheable := st.hitOp[sp.Op]
		if sp.Name != "serve.handler" || !cacheable {
			continue
		}
		if hitReq {
			hit += sp.dur()
		} else {
			miss += sp.dur()
		}
	}
	return hit, miss
}

// traceServe replays serve-mixed's request stream in traceRounds pairs
// of rounds. Both rounds of a pair send the same slice of the stream to
// a fresh server warmed by the same serveWarmReqs requests before the
// slice, the first untraced and the second traced, so the overhead
// ratio compares the same requests from the same cache state.
func (w *workload) traceServe(tr *tracer, untraced, traced *time.Duration) (*serveTrace, error) {
	st := &serveTrace{hitOp: map[int]bool{}}
	plain := func(s *server, c int, j *job) reply {
		r := s.do(c, j, nil)
		st.count(r.ok)
		return r
	}
	tracedReq := func(s *server, c int, j *job) reply { return st.traced(tr, s, c, j) }
	for pair := 0; pair < traceRounds; pair++ {
		from := pair * (serveWarmReqs + serveTraceReqs)
		for _, isTraced := range []bool{false, true} {
			s := startServer(cacheEntries, tr)
			s.expect(w.jobs)
			w.drive(s, from, serveWarmReqs, plain)
			if isTraced {
				*traced += w.drive(s, from+serveWarmReqs, serveTraceReqs, tracedReq)
			} else {
				*untraced += w.drive(s, from+serveWarmReqs, serveTraceReqs, plain)
			}
			s.close()
		}
	}
	if st.failed > 0 {
		return nil, fmt.Errorf("serve: %d of %d requests failed", st.failed, st.requests)
	}
	return st, nil
}

// drive sends the n requests of the stream that start at index from,
// over all callers' connections in closed loops, and returns the sum of
// their round-trip times.
func (w *workload) drive(s *server, from, n int, req func(s *server, c int, j *job) reply) time.Duration {
	var next atomic.Int64
	var mu sync.Mutex
	var total time.Duration
	var wg sync.WaitGroup
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum time.Duration
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				sum += req(s, c, w.stream[(from+i)%len(w.stream)]).rtt
			}
			mu.Lock()
			total += sum
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}
