package main

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/mini"
)

// verification is what the pass before the timed window establishes.
type verification struct {
	origSteps, outSteps uint64 // retired instructions over every input
	inBytes, outBytes   int
}

func (v verification) retiredRatio() float64 { return float64(v.outSteps) / float64(v.origSteps) }
func (v verification) sizeRatio() float64    { return float64(v.outBytes) / float64(v.inBytes) }

// verify rewrites every job's binary with core.Rewrite, runs the
// original and the rewritten binary under emu on each program input,
// and requires both to match the reference interpreter's stdout and
// exit code. It records each output's bytes, which every timed
// operation is then compared against. Jobs that differ only in
// validation share one check. With emptyInput, binaries that are
// validated also run on empty input, the input surid validates on.
func verify(jobs []*job, emptyInput bool) (verification, error) {
	var distinct []*job // one unvalidated job per binary and pass list
	seen := map[binKey]bool{}
	for _, j := range jobs {
		if !seen[j.key()] {
			seen[j.key()] = true
			distinct = append(distinct, &job{in: j.in, passes: j.passes})
		}
	}
	validated := map[binKey]bool{}
	for _, j := range jobs {
		validated[j.key()] = validated[j.key()] || (emptyInput && j.validate)
	}
	checks := make([]verification, len(distinct))
	errs := make([]error, len(distinct))
	parallel(len(distinct), func(i int) {
		checks[i], errs[i] = verifyOne(distinct[i], validated[distinct[i].key()])
	})
	var v verification
	for i, d := range distinct {
		if errs[i] != nil {
			return v, fmt.Errorf("%s: %w", d.name(), errs[i])
		}
		v.origSteps += checks[i].origSteps
		v.outSteps += checks[i].outSteps
		v.inBytes += checks[i].inBytes
		v.outBytes += checks[i].outBytes
	}
	want := map[binKey][]byte{}
	for _, d := range distinct {
		want[d.key()] = d.want
	}
	for _, j := range jobs {
		j.want = want[j.key()]
	}
	return v, nil
}

// verifyOne checks one binary under one pass list, on the program's
// inputs and optionally the empty input, and sets j.want.
func verifyOne(j *job, empty bool) (verification, error) {
	var v verification
	res, err := core.Rewrite(j.in.bin, core.Options{Passes: j.passValues()})
	if err != nil {
		return v, fmt.Errorf("rewrite: %w", err)
	}
	inputs, vals := j.in.prog.inputBytes(), j.in.prog.inputs
	if empty {
		inputs, vals = append(inputs, nil), append(vals, nil)
	}
	for i, in := range inputs {
		ref, err := mini.Run(j.in.prog.mod, vals[i])
		if err != nil {
			return v, fmt.Errorf("reference interpreter: %w", err)
		}
		a, err := emu.Run(j.in.bin, emu.Options{Input: in})
		if err != nil {
			return v, fmt.Errorf("input %d: original: %w", i, err)
		}
		b, err := emu.Run(res.Binary, emu.Options{Input: in, MaxSteps: a.Steps*10 + 1_000_000})
		if err != nil {
			return v, fmt.Errorf("input %d: rewritten: %w", i, err)
		}
		for _, r := range []*emu.Result{a, b} {
			if r.Exit != ref.Exit || !bytes.Equal(r.Stdout, ref.Output) {
				return v, fmt.Errorf("input %d: exit %d, %d bytes of stdout; reference exit %d, %d bytes",
					i, r.Exit, len(r.Stdout), ref.Exit, len(ref.Output))
			}
		}
		v.origSteps += a.Steps
		v.outSteps += b.Steps
	}
	v.inBytes, v.outBytes = len(j.in.bin), len(res.Binary)
	j.want = res.Binary
	return v, nil
}
