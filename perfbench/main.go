// Command perfbench is the repository's benchmark: one command that
// runs a named workload against the public API, checks every output
// against the reference interpreter, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
//
//	bash perfbench/run.sh --workload rewrite-corpus --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload validate-hot --seed 1 --seconds 20 --repeat 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any wrong output makes the
// exit code 1. See README.md for the workloads and the layer table.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics. The fail ratio is printed in the
// table but carried in the JSON by "attempted" and "failed": it reads 0
// on a correct run, and a gated metric must never read 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
	{"heap_peak_mb", "MB"},
	{"retired_ratio", "ratio"},
	{"size_ratio", "ratio"},
}

// perLayer are the --trace 1 metrics.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range stageLayers {
		out = append(out, metricDef{l + ".ms", "ms"})
	}
	for _, suffix := range []metricDef{{"allocs", "count"}, {"alloc_mb", "MB"}, {"live_mb", "MB"}} {
		for _, l := range stageLayers {
			out = append(out, metricDef{l + "." + suffix.name, suffix.unit})
		}
	}
	return append(out, []metricDef{
		{"cfg.blocks", "count"}, {"cfg.instructions", "count"},
		{"serialize.synth_ratio", "ratio"},
		{"repair.code_pointers", "count"}, {"repair.pinned", "count"},
		{"symbolize.tables", "count"}, {"symbolize.table_overapprox", "ratio"},
		{"emit.relax_rounds", "count"}, {"instr.inserted", "count"},
		{"emu.orig_ms", "ms"}, {"emu.rewritten_ms", "ms"}, {"emu.steps", "count"},
		{"emu.minsts_per_s", "Minst/s"}, {"emu.alloc_mb", "MB"},
		{"validate.rewrite_ms", "ms"}, {"validate.attempts", "count"},
		{"serve.rtt_ms", "ms"}, {"serve.handler_ms", "ms"},
		{"serve.hit_handler_ms", "ms"}, {"serve.miss_handler_ms", "ms"},
		{"serve.transport_ms", "ms"},
		{"farm.hit_ratio", "ratio"}, {"farm.coalesced_ratio", "ratio"},
		{"trace.overhead_ratio", "ratio"}, {"trace.coverage", "ratio"},
	}...)
}()

// setupRuns is how often a run sets the system up; setup_s is the median.
const setupRuns = 5

type metricOut struct {
	Value *float64 `json:"value"` // null when missing
	Unit  string   `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: rewrite-corpus, validate-hot or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed window")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	repeat := flag.Int("repeat", 0, "steadiness mode: run the workload on the seed this many times")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := steadiness(*name, *seed, *seconds, *traced, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	traceOut := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload run. A wrong output yields a result with
// Correct false and the error; a setup failure yields no result.
func run(name string, seed int64, window time.Duration, traced bool, traceOut string) (*result, error) {
	t0 := time.Now()
	phase := func(what string) {
		fmt.Fprintf(os.Stderr, "perfbench: %-8s done at %6.2f s\n", what, time.Since(t0).Seconds())
	}
	w, err := build(name, seed)
	if err != nil {
		return nil, err
	}
	phase("inputs")
	wrong := func(attempted int, err error) (*result, error) {
		return &result{Correct: false, Attempted: max(attempted, 1), Failed: max(attempted, 1), Metrics: map[string]metricOut{}}, err
	}
	ver, err := verify(w.jobs, w.serving())
	if err != nil {
		return wrong(len(w.jobs), err)
	}
	phase("verify")
	if traced {
		tr, err := traceRun(w)
		if err != nil {
			return wrong(len(w.jobs), err)
		}
		phase("trace")
		if err := tr.summary.export(traceOut); err != nil {
			return nil, err
		}
		out := &result{Correct: true, Attempted: tr.attempted, Metrics: map[string]metricOut{}}
		for _, d := range perLayer {
			out.Metrics[d.name] = metricOut{Value: num(tr.metrics[d.name]), Unit: d.unit}
		}
		printTable(perLayer, out)
		fmt.Printf("trace: %d spans written to %s\n", len(tr.summary.spans), traceOut)
		return out, nil
	}

	mem, _, err := w.memoryPass()
	if err != nil {
		return wrong(len(w.jobs), err)
	}
	phase("memory")
	var setups []float64
	var sys *system
	for i := 0; i < setupRuns; i++ {
		t := time.Now()
		sys = w.start()
		for _, j := range w.warmJobs() {
			if _, ok := sys.run(0, j); !ok {
				sys.close()
				return wrong(len(w.jobs), fmt.Errorf("%s: warm-up operation failed", j.name()))
			}
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < setupRuns-1 {
			sys.close()
		}
	}
	phase("setup")
	win := runWindow(window, w.callers, func(c, i int) (time.Duration, bool) {
		return sys.run(c, w.stream[i%len(w.stream)])
	})
	sys.close()

	ops := float64(win.ops)
	p50, _ := percentile(win.lat, 50)
	p90, p90ok := percentile(win.lat, 90)
	m := map[string]*float64{
		"setup_s":          num(median(setups)),
		"throughput_per_s": num(ops / win.elapsed.Seconds()),
		"latency_ms_p50":   num(p50),
		"latency_ms_p90":   num(p90),
		"cpu_ms_per_op":    num(float64(win.cpu) / 1e6 / ops),
		"alloc_mb_per_op":  num(float64(win.bytes) / 1e6 / ops),
		"allocs_per_op":    num(float64(win.mallocs) / ops),
		"heap_peak_mb":     num(mem.meanPeak() / 1e6),
		"retired_ratio":    num(ver.retiredRatio()),
		"size_ratio":       num(ver.sizeRatio()),
	}
	if !p90ok {
		m["latency_ms_p90"] = nil
	}
	out := &result{Correct: win.failed == 0, Attempted: win.ops, Failed: win.failed, Metrics: map[string]metricOut{}}
	for _, d := range endToEnd {
		out.Metrics[d.name] = metricOut{Value: m[d.name], Unit: d.unit}
	}
	printTable(endToEnd, out)
	fmt.Printf("%-28s %14.6f %s\n", "fail_ratio", float64(win.failed)/ops, "ratio")
	fmt.Printf("%s: %d operations in %.2f s, %d callers, %d distinct inputs\n",
		name, win.ops, win.elapsed.Seconds(), w.callers, len(w.jobs))
	if win.failed > 0 {
		return out, fmt.Errorf("%d of %d operations failed", win.failed, win.ops)
	}
	return out, nil
}

// num returns v for JSON, or nil (null) when v is not a finite number.
func num(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func printTable(defs []metricDef, r *result) {
	for _, d := range defs {
		if v := r.Metrics[d.name].Value; v != nil {
			fmt.Printf("%-28s %14.6f %s\n", d.name, *v, d.unit)
		} else {
			fmt.Printf("%-28s %14s %s\n", d.name, "missing", d.unit)
		}
	}
}

// steadiness runs one workload on one seed k times in child processes
// and prints, for each metric, the median, the quartiles and
// (q3-q1)/median.
func steadiness(name string, seed int64, seconds, traced, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced == 1 {
		defs = perLayer
	}
	vals := map[string][]float64{}
	for i := 1; i <= k; i++ {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		var r result
		if err := json.Unmarshal(lastLine(stdout), &r); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if !r.Correct {
			return errors.New("a run reported wrong output")
		}
		fmt.Printf("run %d:", i)
		for _, d := range defs {
			if v := r.Metrics[d.name].Value; v != nil {
				vals[d.name] = append(vals[d.name], *v)
				fmt.Printf(" %s=%.4g", d.name, *v)
			}
		}
		fmt.Println()
	}
	fmt.Printf("%-28s %14s %14s %14s %9s %s\n", "metric", "q1", "median", "q3", "spread", "n")
	for _, d := range defs {
		xs := vals[d.name]
		q1, q2, q3 := quartiles(xs)
		fmt.Printf("%-28s %14.6f %14.6f %14.6f %9.4f %d\n", d.name, q1, q2, q3, (q3-q1)/q2, len(xs))
	}
	return nil
}

func lastLine(b []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var last []byte
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
