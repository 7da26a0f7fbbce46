package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window is one untraced timed run of a closed loop.
type window struct {
	lat     []float64 // ms per operation, failedLatency for failures
	ops     int
	failed  int
	elapsed time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// minOps is how many operations a window starts at the least, the
// count p90 needs: a window that has not started minOps at its end runs
// on until it has, up to three times its length.
const minOps = 100

// runWindow drives callers closed loops for d: each caller issues
// operation i (a shared counter) and waits for it before the next; op
// returns the operation's latency. The window starts after a forced GC
// and ends when the last operation started inside it completes.
func runWindow(d time.Duration, callers int, op func(caller, i int) (time.Duration, bool)) window {
	var w window
	var next atomic.Int64
	lats := make([][]float64, callers)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline, stop := t0.Add(d), t0.Add(3*d)
	more := func() bool {
		now := time.Now()
		return now.Before(deadline) || (next.Load() < minOps && now.Before(stop))
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				lat, ok := op(c, int(next.Add(1)-1))
				ms := float64(lat) / 1e6
				if !ok {
					ms = failedLatency
				}
				lats[c] = append(lats[c], ms)
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(t0)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.bytes = m1.TotalAlloc - m0.TotalAlloc
	for _, l := range lats {
		w.lat = append(w.lat, l...)
	}
	sort.Float64s(w.lat)
	w.ops = len(w.lat)
	for _, l := range w.lat {
		if l == failedLatency {
			w.failed++
		}
	}
	return w
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memProbe is a hook that samples the heap around every layer call:
// allocations over the call, then the live heap after a forced GC,
// relative to the live heap before the operation began.
type memProbe struct {
	base    uint64 // live heap before the current operation
	opPeak  uint64 // largest live heap above base in the current operation
	peakSum uint64 // opPeak summed over operations
	ops     int
	allocs  map[string]uint64
	bytes   map[string]uint64
	live    map[string]uint64 // summed over calls
	calls   map[string]int
}

func newMemProbe() *memProbe {
	return &memProbe{allocs: map[string]uint64{}, bytes: map[string]uint64{},
		live: map[string]uint64{}, calls: map[string]int{}}
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// op samples one operation; fn must keep what the operation returns
// live until it returns.
func (p *memProbe) op(fn func(h hook) error) error {
	p.ops++
	p.base, p.opPeak = liveHeap(), 0
	err := fn(p.hook)
	p.peakSum += p.opPeak
	return err
}

// meanPeak is the operations' mean peak live heap above their base.
func (p *memProbe) meanPeak() float64 {
	if p.ops == 0 {
		return 0
	}
	return float64(p.peakSum) / float64(p.ops)
}

func (p *memProbe) hook(layer string, fn func() error) error {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	p.allocs[layer] += b.Mallocs - a.Mallocs
	p.bytes[layer] += b.TotalAlloc - a.TotalAlloc
	p.calls[layer]++
	if live := liveHeap(); live > p.base {
		p.live[layer] += live - p.base
		p.opPeak = max(p.opPeak, live-p.base)
	}
	return err
}

// perCall is the mean of a per-layer sum over the layer's calls.
func perCall(sum map[string]uint64, calls map[string]int, layer string) float64 {
	if calls[layer] == 0 {
		return 0
	}
	return float64(sum[layer]) / float64(calls[layer])
}
