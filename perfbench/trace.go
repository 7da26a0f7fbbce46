package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// an operation's root has Parent -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) open(name string, op, parent int) int {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops - 1
}

// op records one operation named name; fn receives a hook that nests
// each layer call under the innermost open span of this operation.
func (t *tracer) op(name string, fn func(h hook) error) error {
	op := t.newOp()
	stack := []int{t.open(name, op, -1)}
	h := func(layer string, call func() error) error {
		i := t.open(layer, op, stack[len(stack)-1])
		stack = append(stack, i)
		err := call()
		stack = stack[:len(stack)-1]
		t.close(i)
		return err
	}
	err := fn(h)
	t.close(stack[0])
	return err
}

// spanHeader carries "op.parent" from the client's request span to the
// server-side handler span.
const spanHeader = "X-Perfbench-Span"

// handler wraps next, recording a serve.handler span under the span
// named in the request's spanHeader. Requests without it pass through.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opStr, parentStr, ok := strings.Cut(r.Header.Get(spanHeader), ".")
		op, err1 := strconv.Atoi(opStr)
		parent, err2 := strconv.Atoi(parentStr)
		if !ok || err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		i := t.open("serve.handler", op, parent)
		next.ServeHTTP(w, r)
		t.close(i)
	})
}

// summary is the per-layer arithmetic over a finished trace.
type summary struct {
	spans    []span
	self     []int64        // span duration minus its children's
	covered  []int64        // children's total duration
	opRoot   map[int]int    // op -> root span index
	perOp    map[string]int // layer -> ops that called it
	selfSum  map[string]int64
	durSum   map[string]int64
	calls    map[string]int
	rootKind map[int]string // op -> root name
}

func (t *tracer) summarize() *summary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	s := &summary{
		spans:   spans,
		self:    make([]int64, len(spans)),
		covered: make([]int64, len(spans)),
		opRoot:  map[int]int{}, perOp: map[string]int{},
		selfSum: map[string]int64{}, durSum: map[string]int64{},
		calls: map[string]int{}, rootKind: map[int]string{},
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			s.covered[p] += spans[i].dur()
		} else {
			s.opRoot[spans[i].Op] = i
			s.rootKind[spans[i].Op] = spans[i].Name
		}
	}
	type layerOp struct {
		name string
		op   int
	}
	seen := map[layerOp]bool{}
	for i := range spans {
		sp := &spans[i]
		s.self[i] = max(sp.dur()-s.covered[i], 0)
		if sp.Parent < 0 {
			continue
		}
		s.selfSum[sp.Name] += s.self[i]
		s.durSum[sp.Name] += sp.dur()
		s.calls[sp.Name]++
		if k := (layerOp{sp.Name, sp.Op}); !seen[k] {
			seen[k] = true
			s.perOp[sp.Name]++
		}
	}
	return s
}

// selfMs is layer's self time per operation that called it, in ms.
func (s *summary) selfMs(layer string) float64 {
	if s.perOp[layer] == 0 {
		return 0
	}
	return float64(s.selfSum[layer]) / float64(s.perOp[layer]) / 1e6
}

// durMs is the mean duration of one call into layer, in ms.
func (s *summary) durMs(layer string) float64 {
	if s.calls[layer] == 0 {
		return 0
	}
	return float64(s.durSum[layer]) / float64(s.calls[layer]) / 1e6
}

// coverage is the share of operation time that layer spans cover.
func (s *summary) coverage() float64 {
	var total, covered int64
	for _, i := range s.opRoot {
		total += s.spans[i].dur()
		covered += s.covered[i]
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// shares returns, for each operation kind, every layer's share of that
// kind's total operation time (self times, so shares sum to coverage).
func (s *summary) shares() map[string]map[string]float64 {
	total := map[string]int64{}
	for op, i := range s.opRoot {
		total[s.rootKind[op]] += s.spans[i].dur()
	}
	out := map[string]map[string]float64{}
	for i := range s.spans {
		sp := &s.spans[i]
		if sp.Parent < 0 {
			continue
		}
		kind := s.rootKind[sp.Op]
		if out[kind] == nil {
			out[kind] = map[string]float64{}
		}
		out[kind][sp.Name] += float64(s.self[i]) / float64(total[kind])
	}
	return out
}

// export writes the spans and the per-kind shares as JSON.
func (s *summary) export(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type shareRow struct {
		Op    string  `json:"op"`
		Layer string  `json:"layer"`
		Share float64 `json:"share"`
	}
	var rows []shareRow
	for kind, m := range s.shares() {
		for layer, v := range m {
			rows = append(rows, shareRow{kind, layer, v})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Op != rows[j].Op {
			return rows[i].Op < rows[j].Op
		}
		return rows[i].Share > rows[j].Share
	})
	b, err := json.Marshal(struct {
		Shares []shareRow `json:"shares"`
		Spans  []span     `json:"spans"`
	}{rows, s.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
