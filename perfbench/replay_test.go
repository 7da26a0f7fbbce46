package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/prog"
)

// TestReplayMatchesRewrite pins the stage replay to core.Rewrite and
// core.RewriteValidated: identical bytes on suite and C++-shaped
// programs, stripped and without unwind tables, with and without the
// serving workload's passes.
func TestReplayMatchesRewrite(t *testing.T) {
	small, _ := prog.ShapeByName("small")
	suite := prog.Generate("coreutils_007", 1007, small)
	cxx := gen.Generate("cxx", 5, small, gen.Features{LandingPads: true, VTables: true, TLS: true, DataInText: true})
	progs := []*program{
		{name: "coreutils_007", mod: suite.Module, inputs: suite.Inputs, trueTables: suite.TrueTableEntries},
		{name: "cxx", mod: cxx.Module, inputs: cxx.Inputs},
	}
	all := cc.AllConfigs()
	configs := []cc.Config{all[3], all[20], all[45]}
	configs[1].Stripped = true
	configs[2].EhFrame = false
	w := &workload{name: "rewrite-corpus"}
	for _, p := range progs {
		for _, c := range configs {
			bin, err := cc.Compile(p.mod, c)
			if err != nil {
				t.Fatal(err)
			}
			for _, passes := range []string{"", passList} {
				j := &job{in: &binaryIn{prog: p, cfg: c, bin: bin}, passes: passes}
				res, err := core.Rewrite(bin, core.Options{Passes: j.passValues()})
				if err != nil {
					t.Fatalf("%s: %v", j.name(), err)
				}
				j.want = res.Binary
				st, err := w.replayJob(j, direct)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(st.out, res.Binary) {
					t.Fatalf("%s: replay differs from core.Rewrite", j.name())
				}
				j.validate = true
				st, err = w.replayJob(j, direct)
				if err != nil {
					t.Fatal(err)
				}
				if st.emuSteps == 0 {
					t.Fatalf("%s: validated replay ran no instructions", j.name())
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// lists in step with what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads; the command runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d is %q; want %q", i, wl.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics; the command prints %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s); the command prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
