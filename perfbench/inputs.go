package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/cc"
	"repro/internal/emu"
	"repro/internal/gen"
	"repro/internal/instr"
	"repro/internal/mini"
	"repro/internal/prog"
)

// passList is the instrumentation the serving workload requests on a
// quarter of its requests. The shadowstack pass is left out: it exits
// 135 on C++-shaped programs whose throws unwind past frames, because
// its stack is not unwound with them.
const passList = "coverage,counters"

// program is one generated source with its reference inputs.
type program struct {
	name   string
	mod    *mini.Module
	inputs [][]int64
	// trueTables is prog's ground-truth jump-table entry count; zero
	// for the C++-shaped programs, whose generator does not track it.
	trueTables int
}

// binaryIn is one compiled input binary.
type binaryIn struct {
	prog *program
	cfg  cc.Config
	bin  []byte
}

// job is one distinct operation of a workload: a binary, the passes
// requested on it, and whether the rewrite is validated.
type job struct {
	in       *binaryIn
	passes   string
	validate bool

	// want is the verified output image, filled by verify.
	want []byte
}

// binKey identifies a job's output: its binary and passes.
type binKey struct {
	in     *binaryIn
	passes string
}

func (j *job) key() binKey { return binKey{j.in, j.passes} }

func (j *job) name() string {
	s := j.in.prog.name + "/" + j.in.cfg.String()
	if j.passes != "" {
		s += "+" + j.passes
	}
	if j.validate {
		s += "+validate"
	}
	return s
}

func (j *job) passValues() []instr.Pass {
	p, err := instr.ParseList(j.passes)
	if err != nil {
		panic(err) // passList is a constant the tests parse
	}
	return p
}

// inputBytes encodes each program input as the byte stream the
// emulated read syscall serves.
func (p *program) inputBytes() [][]byte {
	out := make([][]byte, len(p.inputs))
	for i, vals := range p.inputs {
		for _, v := range vals {
			out[i] = binary.LittleEndian.AppendUint64(out[i], uint64(v))
		}
	}
	return out
}

// Corpus layout: the first two programs of each prog suite (what
// prog.Suites gives at any scale below 0.02) plus four C++-shaped
// programs, each compiled under four configurations. The 48 slots take
// the 48 configurations of the matrix once each, a quarter of the slots
// stripped and an eighth without unwind tables, the fuzzer's rates.
// The programs are fixed because drawing them per seed moved the
// workload's median latency by about 15% between seeds. The seed draws
// which configurations each program meets, and the order, within
// strata that keep each program's mix alike on every seed: one binary
// from each compiler, four distinct optimization levels, two per
// linker, and one stripped binary.
const (
	suiteScale  = 0.01
	cxxPrograms = 4
	configsPer  = 4
	noUnwindOf  = 6 // programs with one binary without unwind tables
)

// corpus builds the rewrite-corpus binaries for a seed.
func corpus(seed int64) ([]*binaryIn, error) {
	r := rand.New(rand.NewSource(seed))
	// The suite programs generate on this goroutine and the C++-shaped
	// ones on another; generation dominates input preparation.
	cxx := make(chan []*program)
	go func() {
		feats := gen.AllFeatures()
		feats.Stripped = false // a build axis, set per binary below
		var out []*program
		for i := 0; i < cxxPrograms; i++ {
			shape, _ := prog.ShapeByName([]string{"small", "medium"}[i%2])
			name := fmt.Sprintf("cxx_%d", i)
			p := gen.Generate(name, int64(i+1), shape, feats)
			out = append(out, &program{name: name, mod: p.Module, inputs: p.Inputs})
		}
		cxx <- out
	}()
	var progs []*program
	for _, s := range prog.Suites(suiteScale) {
		for _, p := range s.Programs {
			progs = append(progs, &program{name: p.Name, mod: p.Module, inputs: p.Inputs, trueTables: p.TrueTableEntries})
		}
	}
	progs = append(progs, <-cxx...)

	// The matrix as a grid: row opt*2+linker, column compiler. Program p
	// takes from each column k the row base[p]+3k (mod 12), so every
	// configuration is taken once, and rows 3 apart never share an
	// optimization level and alternate linkers.
	all := cc.AllConfigs() // compiler-major, then linker, then opt
	const rows = 12
	base, cols, noUnwind := r.Perm(rows), r.Perm(configsPer), r.Perm(len(progs))
	var out []*binaryIn
	for i, p := range progs {
		stripped := r.Intn(configsPer)
		bare := (stripped + 1 + r.Intn(configsPer-1)) % configsPer
		for k := 0; k < configsPer; k++ {
			row := (base[i] + 3*k) % rows
			c := all[cols[k]*rows+row%2*(rows/2)+row/2]
			c.Stripped = k == stripped
			c.EhFrame = !(k == bare && noUnwind[i] < noUnwindOf)
			bin, err := cc.Compile(p.mod, c)
			if err != nil {
				return nil, fmt.Errorf("compile %s/%s: %w", p.name, c, err)
			}
			out = append(out, &binaryIn{prog: p, cfg: c, bin: bin})
		}
	}
	return out, nil
}

// hotShape is the bench_hot shape of the repository's Go benchmarks
// with a shorter main loop, so a 20 s window holds about 250 validated
// rewrites while emulation stays most of each.
var hotShape = prog.Shape{Funcs: 8, Switches: 3, Globals: 8, MainLoop: 512, Stmts: 12, NumInputs: 1}

// hotSeeds are fixed execution-heavy programs of hotShape (11 is
// bench_hot's own seed): each retires 1.7M-2.1M instructions per run
// and generates in about a second. Drawing the programs per seed would
// make the workload's size vary tenfold between seeds (a hot-shaped
// program can exit after 20k instructions or run 8M), so the seed
// draws each program's compilers, linkers and the operation order.
var hotSeeds = []int64{11, 13, 16}

// hotSet builds the validate-hot binaries: each hot program at O2 and
// at O3, each by a GCC and by a Clang version, with a seeded version
// and linker, so every seed weighs the compiler families alike.
func hotSet(seed int64) ([]*binaryIn, error) {
	r := rand.New(rand.NewSource(seed))
	var mk []func() *program
	for _, pseed := range hotSeeds {
		name := fmt.Sprintf("hot_%d", pseed)
		mk = append(mk, func() *program {
			p := prog.Generate(name, pseed, hotShape)
			return &program{name: name, mod: p.Module, inputs: p.Inputs, trueTables: p.TrueTableEntries}
		})
	}
	progs := generate(mk)
	families := [][]cc.CompilerStyle{{cc.GCC11, cc.GCC13}, {cc.Clang10, cc.Clang13}}
	linkers := []cc.LinkerStyle{cc.LD, cc.Gold}
	var out []*binaryIn
	for _, p := range progs {
		for _, opt := range []cc.OptLevel{cc.O2, cc.O3} {
			for _, fam := range families {
				c := cc.Config{Compiler: fam[r.Intn(len(fam))], Linker: linkers[r.Intn(len(linkers))],
					Opt: opt, CET: true, EhFrame: true}
				bin, err := cc.Compile(p.mod, c)
				if err != nil {
					return nil, fmt.Errorf("compile %s/%s: %w", p.name, c, err)
				}
				out = append(out, &binaryIn{prog: p, cfg: c, bin: bin})
			}
		}
	}
	return out, nil
}

// generate runs the program generators in parallel and returns the
// programs in order. Generation validates each program against the
// reference interpreter and dominates input preparation.
func generate(mk []func() *program) []*program {
	out := make([]*program, len(mk))
	parallel(len(mk), func(i int) { out[i] = mk[i]() })
	return out
}

// parallel calls fn(0..n-1) on at most two goroutines, the host CPU
// count the workloads are sized for.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(2, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Serving mix: requests reuse the corpus binaries with Zipf skew; a
// quarter carry the instrumentation passes and an eighth ask for a
// validated rewrite.
const (
	streamLen = 1 << 14
	zipfS     = 1.1
)

// rankOrder interleaves the corpus programs (indices into corpus order:
// two per suite, then the C++-shaped ones) so that small, medium, large
// and C++-shaped programs alternate down the Zipf ranks.
var rankOrder = []int{0, 2, 4, 8, 6, 9, 1, 3, 5, 10, 7, 11}

// haltSteps bounds the run that decides whether a program halts on
// empty input; the corpus programs retire under 1M instructions on
// their own inputs.
const haltSteps = 5_000_000

// haltsOnEmpty reports whether b's program halts on empty input, the
// only input surid's validate=1 runs a binary on.
func haltsOnEmpty(b *binaryIn) bool {
	r, err := emu.Run(b.bin, emu.Options{MaxSteps: haltSteps})
	return err == nil && r.Exit >= 0
}

// serveStream draws the request stream over the corpus binaries and
// returns it with the distinct jobs it uses, in first-use order.
// Requests reuse binaries with Zipf skew over a rank order that is the
// same for every seed up to configurations: the programs take turns,
// each program's first binary outranking every program's second, so
// the load's mix of program sizes does not depend on the seed; with a
// seeded rank order the p90 latency moved by a fifth between seeds.
// Validated requests draw from the binaries whose program halts on
// empty input, since surid validates on no input and a program that
// does not halt cannot be validated.
func serveStream(seed int64, bins []*binaryIn) ([]*job, []*job, error) {
	r := rand.New(rand.NewSource(seed ^ 0x5e77e))
	byProg := map[*program][]*binaryIn{}
	var progs []*program
	for _, b := range bins {
		if byProg[b.prog] == nil {
			progs = append(progs, b.prog)
		}
		byProg[b.prog] = append(byProg[b.prog], b)
	}
	var ranked, halting []*binaryIn
	for k := 0; k < configsPer; k++ {
		for _, i := range rankOrder {
			ranked = append(ranked, byProg[progs[i]][k])
		}
	}
	halts := map[*program]bool{}
	for _, p := range progs {
		halts[p] = haltsOnEmpty(byProg[p][0])
	}
	for _, b := range ranked {
		if halts[b.prog] {
			halting = append(halting, b)
		}
	}
	if len(halting) == 0 {
		return nil, nil, fmt.Errorf("no corpus program halts on empty input")
	}
	pick := func(set []*binaryIn) func() *binaryIn {
		z := rand.NewZipf(r, zipfS, 1, uint64(len(set)-1))
		return func() *binaryIn { return set[z.Uint64()] }
	}
	anyBin, haltingBin := pick(ranked), pick(halting)
	type reqKey struct {
		binKey
		validate bool
	}
	seen := make(map[reqKey]*job)
	var jobs []*job
	stream := make([]*job, streamLen)
	for i := range stream {
		k := reqKey{binKey: binKey{in: anyBin()}}
		if r.Intn(4) == 0 {
			k.passes = passList
		}
		if r.Intn(8) == 0 {
			k.in, k.validate = haltingBin(), true
		}
		j := seen[k]
		if j == nil {
			j = &job{in: k.in, passes: k.passes, validate: k.validate}
			seen[k] = j
			jobs = append(jobs, j)
		}
		stream[i] = j
	}
	return stream, jobs, nil
}
