package main

import (
	"testing"

	"repro/internal/cc"
)

// TestCorpusStrata pins the corpus layout: on every seed the 48 slots
// take the matrix once each, and every program meets each compiler
// once, four distinct optimization levels, both linkers twice, and one
// stripped binary; six binaries lack unwind tables, none of them
// stripped.
func TestCorpusStrata(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		bins, err := corpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[cc.Config]bool{}
		noUnwind := 0
		for i := 0; i < len(bins); i += configsPer {
			comps, opts, links, stripped := map[cc.CompilerStyle]bool{}, map[cc.OptLevel]bool{}, map[cc.LinkerStyle]int{}, 0
			for _, b := range bins[i : i+configsPer] {
				if b.prog != bins[i].prog {
					t.Fatalf("seed %d: binaries of one program are not adjacent", seed)
				}
				c := b.cfg
				comps[c.Compiler], opts[c.Opt] = true, true
				links[c.Linker]++
				if c.Stripped {
					stripped++
				}
				if !c.EhFrame {
					noUnwind++
					if c.Stripped {
						t.Errorf("seed %d: %s is stripped and without unwind tables", seed, b.prog.name)
					}
				}
				c.Stripped, c.EhFrame = false, true
				if seen[c] {
					t.Errorf("seed %d: configuration %s taken twice", seed, c)
				}
				seen[c] = true
			}
			if len(comps) != configsPer || len(opts) != configsPer || links[cc.LD] != 2 || stripped != 1 {
				t.Errorf("seed %d: %s has %d compilers, %d opt levels, %d ld binaries, %d stripped",
					seed, bins[i].prog.name, len(comps), len(opts), links[cc.LD], stripped)
			}
		}
		if len(seen) != len(cc.AllConfigs()) || noUnwind != noUnwindOf {
			t.Errorf("seed %d: %d configurations, %d without unwind tables", seed, len(seen), noUnwind)
		}
	}
}
