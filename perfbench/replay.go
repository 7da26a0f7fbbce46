package main

// This file is the benchmark's only coupling to the pipeline's stage
// signatures: it replays core.Rewrite and core.RewriteValidated stage by
// stage so each call into a layer can be timed and sampled from here.
// It sets no Legacy or Plane field, and its output must stay byte for
// byte identical to core.Rewrite's (checked on every input by the
// traced run and by TestReplayMatchesRewrite).

import (
	"bytes"
	"fmt"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/elfx"
	"repro/internal/emit"
	"repro/internal/emu"
	"repro/internal/harden"
	"repro/internal/instr"
	"repro/internal/repair"
	"repro/internal/serialize"
	"repro/internal/symbolize"
)

// hook wraps one call into a layer; the tracer times it, the memory
// sampler reads the heap around it, and direct just calls it.
type hook func(layer string, fn func() error) error

func direct(_ string, fn func() error) error { return fn() }

// Layer names, in pipeline order. elfx.Read is timed inside cfg.
var stageLayers = []string{"cfg", "serialize", "repair", "audit", "symbolize", "instr", "emit"}

// stages holds every intermediate of one replayed rewrite, so a caller
// can keep them live to the end of the operation, as a caller holding a
// core.Result does.
type stages struct {
	graph    *cfg.Graph
	entries  []serialize.Entry
	copied   int // original instructions in S
	added    int // synthesized instructions in S
	rep      *repair.Result
	sym      *symbolize.Result
	ins      *instr.Result
	out      []byte
	layout   *emit.Layout
	emuSteps uint64 // retired instructions, both binaries, validated replays only
	machines [2]*emu.Machine
}

// replayRewrite runs the Fig. 4 stages as core.Rewrite does with
// default options plus passes.
func replayRewrite(bin []byte, passes []instr.Pass, h hook) (*stages, error) {
	st := &stages{}
	budget := harden.Budget{}.WithDefaults()
	if err := h("cfg", func() error {
		f, err := elfx.Read(bin)
		if err != nil {
			return err
		}
		if !f.IsPIE() || !f.HasCET() {
			return core.ErrNotCETPIE
		}
		copts := cfg.DefaultOptions()
		copts.MaxBlockInsts = budget.BlockInsts
		copts.MaxTableEntries = budget.TableEntries
		copts.MaxRounds = budget.CFGRounds
		copts.MaxTotalInsts = budget.TotalInsts
		copts.MaxBlocks = budget.Blocks
		st.graph, err = cfg.Build(f, copts)
		return err
	}); err != nil {
		return nil, fmt.Errorf("cfg: %w", err)
	}
	if err := h("serialize", func() error {
		var err error
		st.entries, err = serialize.Serialize(st.graph)
		return err
	}); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	st.copied, st.added = serialize.Count(st.entries)
	if err := h("repair", func() error {
		var err error
		st.rep, err = repair.Repair(st.entries, st.graph)
		return err
	}); err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	if err := h("audit", func() error {
		_, err := repair.Audit(st.entries, st.graph)
		return err
	}); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	if err := h("symbolize", func() error {
		var err error
		st.entries, st.sym, err = symbolize.Symbolize(st.entries, st.graph)
		return err
	}); err != nil {
		return nil, fmt.Errorf("symbolize: %w", err)
	}
	if err := h("instr", func() error {
		if len(passes) == 0 {
			return nil
		}
		var err error
		if st.ins, err = instr.Apply(st.entries, passes, instr.Options{}); err != nil {
			return err
		}
		st.entries = st.ins.Entries
		return nil
	}); err != nil {
		return nil, fmt.Errorf("instr: %w", err)
	}
	if err := h("emit", func() error {
		sets := make(map[string]uint64, len(st.rep.Sets)+len(st.sym.Sets))
		for k, v := range st.rep.Sets {
			sets[k] = v
		}
		for k, v := range st.sym.Sets {
			sets[k] = v
		}
		in := emit.Input{Graph: st.graph, Entries: st.entries, TableItems: st.sym.TableItems, Sets: sets}
		if st.ins != nil {
			in.InstrItems = st.ins.Payload
		}
		var err error
		st.out, st.layout, err = emit.Emit(in)
		return err
	}); err != nil {
		return nil, fmt.Errorf("emit: %w", err)
	}
	return st, nil
}

// replayValidated replays core.RewriteValidated's first attempt: the
// rewrite, then the original and rewritten binaries on each input, each
// on one machine that is reloaded between inputs. A divergence is an
// error; the benchmark's inputs never need the widened retry.
func replayValidated(bin []byte, passes []instr.Pass, inputs [][]byte, h hook) (*stages, error) {
	if len(inputs) == 0 {
		inputs = [][]byte{nil}
	}
	var st *stages
	if err := h("rewrite", func() error {
		var err error
		st, err = replayRewrite(bin, passes, h)
		return err
	}); err != nil {
		return nil, err
	}
	budget := harden.Budget{}.WithDefaults()
	var of, rf *elfx.File
	for _, in := range inputs {
		var a, b *emu.Result
		if err := h("emu.orig", func() error {
			var err error
			if of == nil {
				if of, err = elfx.Read(bin); err != nil {
					return err
				}
			}
			a, err = runOn(&st.machines[0], of, emu.Options{Input: in, MaxSteps: budget.EmuSteps})
			return err
		}); err != nil {
			return nil, fmt.Errorf("original binary: %w", err)
		}
		if err := h("emu.rewritten", func() error {
			var err error
			if rf == nil {
				if rf, err = elfx.Read(st.out); err != nil {
					return err
				}
			}
			b, err = runOn(&st.machines[1], rf, emu.Options{Input: in, MaxSteps: a.Steps*10 + 1_000_000})
			return err
		}); err != nil {
			return nil, fmt.Errorf("rewritten binary: %w", err)
		}
		if a.Exit != b.Exit || !bytes.Equal(a.Stdout, b.Stdout) {
			return nil, fmt.Errorf("rewritten binary diverged: exit %d vs %d, stdout %d vs %d bytes",
				a.Exit, b.Exit, len(a.Stdout), len(b.Stdout))
		}
		st.emuSteps += a.Steps + b.Steps
	}
	return st, nil
}

// runOn executes f to completion on *slot, loading a machine on first
// use and reloading it, predecoded pages kept, thereafter.
func runOn(slot **emu.Machine, f *elfx.File, opts emu.Options) (*emu.Result, error) {
	if *slot == nil {
		m, err := emu.LoadFile(f, opts)
		if err != nil {
			return nil, err
		}
		*slot = m
	} else if err := emu.Reload(*slot, f, opts); err != nil {
		return nil, err
	}
	m := *slot
	if err := m.Run(); err != nil {
		return nil, err
	}
	_, code := m.Exited()
	return &emu.Result{Stdout: m.Stdout, Exit: code, Steps: m.Steps}, nil
}
