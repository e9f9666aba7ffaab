package cfg

import (
	"context"
	"reflect"
	"testing"

	"tsperr/internal/cpu"
	"tsperr/internal/isa"
	"tsperr/internal/numeric"
)

// randomBranchy builds a random but terminating program: backward branches
// guarded by a countdown register so loops are finite, forward branches,
// indirect jumps forward (often into a block's middle), guarded halts in
// the middle of the program, and ALU filler. Every third program has no
// final halt, so its runs fall off the end. Control only ever lands on an
// instruction that cannot jump backward unguarded: never on a countdown
// check, and never on a jr, which its target load always precedes.
func randomBranchy(rng *numeric.RNG, n int) *isa.Program {
	insts := []isa.Inst{
		{Op: isa.OpAddi, Rd: 30, Rs1: 0, Imm: 40}, // loop fuel
	}
	noLanding := map[int]bool{}
	for i := 1; i <= n; i++ {
		at := len(insts)
		switch rng.Intn(8) {
		case 0: // backward branch guarded by fuel
			insts = append(insts,
				isa.Inst{Op: isa.OpAddi, Rd: 30, Rs1: 30, Imm: -1},
				// Skip the backward jump once fuel is exhausted (0 >= fuel).
				isa.Inst{Op: isa.OpBge, Rs1: 0, Rs2: 30, Target: at + 3},
				// Never re-enter instruction 0 (the fuel initializer).
				isa.Inst{Op: isa.OpBne, Rs1: 30, Rs2: 0, Target: 1 + rng.Intn(at)},
			)
			noLanding[at+1], noLanding[at+2] = true, true
		case 1: // forward branch
			insts = append(insts, isa.Inst{
				Op: isa.OpBlt, Rs1: uint8(rng.Intn(8)), Rs2: uint8(rng.Intn(8)),
				Target: at + 1 + rng.Intn(3),
			})
		case 2: // indirect jump forward; its target is set below
			insts = append(insts,
				isa.Inst{Op: isa.OpAddi, Rd: 29, Rs1: 0, Imm: int32(at + 2 + rng.Intn(6))},
				isa.Inst{Op: isa.OpJr, Rs1: 29},
			)
			noLanding[at+1] = true
		case 3: // halt unless two registers differ
			insts = append(insts,
				isa.Inst{Op: isa.OpBne, Rs1: uint8(1 + rng.Intn(4)), Rs2: uint8(1 + rng.Intn(4)), Target: at + 2},
				isa.Inst{Op: isa.OpHalt},
			)
		case 4, 5:
			insts = append(insts, isa.Inst{
				Op: isa.OpAddi, Rd: uint8(1 + rng.Intn(8)),
				Rs1: uint8(rng.Intn(8)), Imm: int32(rng.Intn(9) - 4),
			})
		default:
			insts = append(insts, isa.Inst{
				Op: isa.OpAdd, Rd: uint8(1 + rng.Intn(8)),
				Rs1: uint8(rng.Intn(8)), Rs2: uint8(rng.Intn(8)),
			})
		}
	}
	if rng.Intn(3) == 0 {
		insts = append(insts, isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2})
	} else {
		insts = append(insts, isa.Inst{Op: isa.OpHalt})
	}
	// Move every target onto the next permitted landing; branch targets stay
	// inside the program, while a jr may leave it (the run falls off).
	land := func(t, limit int) int {
		for t < limit && noLanding[t] {
			t++
		}
		return min(t, limit)
	}
	for i := range insts {
		switch in := &insts[i]; {
		case in.Op.IsBranch():
			in.Target = land(in.Target, len(insts)-1)
		case in.Op == isa.OpJr:
			insts[i-1].Imm = int32(land(int(insts[i-1].Imm), len(insts)))
		}
	}
	return &isa.Program{Name: "branchy", Insts: insts}
}

// streamProfile is the reference block and edge counting over a DynInst
// stream: a block executes when its first instruction retires, entered
// through the edge from the block of the instruction retired before it.
func streamProfile(g *Graph, ds []cpu.DynInst) ([]int64, map[Edge]int64) {
	exec, edges := make([]int64, len(g.Blocks)), map[Edge]int64{}
	for i, d := range ds {
		b := g.BlockOf[d.Index]
		if g.Blocks[b].Start != d.Index {
			continue
		}
		exec[b]++
		if i > 0 {
			edges[Edge{From: g.BlockOf[ds[i-1].Index], To: b}]++
		}
	}
	return exec, edges
}

// TestRandomCFGInvariants checks structural invariants over random programs:
// block partitioning covers every instruction exactly once, BlockOf is
// consistent, successors are in range, and the SCC condensation respects
// edge direction. It also checks the count-derived profile of a tally run
// and the observer-fed profile against reference counting over the
// retirement stream.
func TestRandomCFGInvariants(t *testing.T) {
	rng := numeric.NewRNG(31)
	noFeatures := cpu.NewFailTable(func(isa.Op, int) float64 { return 0 })
	var midEntries, midHalts, fallOffs int
	for trial := 0; trial < 200; trial++ {
		p := randomBranchy(rng, 2+rng.Intn(40))
		g, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		// Partition: blocks tile [0, n) without gaps or overlaps.
		at := 0
		for bi, b := range g.Blocks {
			if b.Start != at {
				t.Fatalf("trial %d: block %d starts at %d, expected %d", trial, bi, b.Start, at)
			}
			if b.End <= b.Start {
				t.Fatalf("trial %d: empty block %d", trial, bi)
			}
			for i := b.Start; i < b.End; i++ {
				if g.BlockOf[i] != bi {
					t.Fatalf("trial %d: BlockOf inconsistent at %d", trial, i)
				}
			}
			for _, s := range b.Succs {
				if s < 0 || s >= len(g.Blocks) {
					t.Fatalf("trial %d: successor out of range", trial)
				}
			}
			at = b.End
		}
		if at != len(p.Insts) {
			t.Fatalf("trial %d: blocks cover %d of %d instructions", trial, at, len(p.Insts))
		}
		// Run it and profile; SCC condensation order must respect profiled
		// edges (from-component <= to-component).
		run := func() *cpu.CPU {
			c, err := cpu.New(p, cpu.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		pr := NewProfile(g)
		observe := pr.Observer()
		var ds []cpu.DynInst
		st, err := run().Run(func(d *cpu.DynInst) { observe(d); ds = append(ds, *d) })
		if err != nil {
			t.Fatal(err)
		}
		tally, tst, err := run().RunTally(context.Background(), noFeatures)
		if err != nil || tst != st {
			t.Fatalf("trial %d: tally run %+v, %v; observed run %+v", trial, tst, err, st)
		}
		fromTally := FromTally(g, tally, tst.Instructions)
		exec, edges := streamProfile(g, ds)
		for _, got := range []*Profile{pr, fromTally} {
			got.Finish()
			if got.InstCount != int64(len(ds)) || !reflect.DeepEqual(got.ExecCount, exec) ||
				!reflect.DeepEqual(got.EdgeCount, edges) {
				t.Fatalf("trial %d: profile %d insts, blocks %v, edges %v; stream %d, %v, %v",
					trial, got.InstCount, got.ExecCount, got.EdgeCount, len(ds), exec, edges)
			}
		}
		for i, d := range ds {
			if i > 0 && ds[i-1].Op == isa.OpJr && g.Blocks[g.BlockOf[d.Index]].Start != d.Index {
				midEntries++
			}
		}
		if last := ds[len(ds)-1]; last.Op == isa.OpHalt && last.Index < len(p.Insts)-1 {
			midHalts++
		} else if !st.Halted {
			fallOffs++
		}
		scc := ComputeSCC(g, pr)
		for e := range pr.EdgeCount {
			if scc.Comp[e.From] > scc.Comp[e.To] {
				t.Fatalf("trial %d: condensation order violated on %v", trial, e)
			}
		}
		// Activation probabilities of incoming edges never exceed 1.
		for bi := range g.Blocks {
			var sum float64
			for _, e := range pr.IncomingEdges(bi) {
				sum += pr.ActivationProb(e)
			}
			if sum > 1+1e-9 {
				t.Fatalf("trial %d: block %d incoming mass %v", trial, bi, sum)
			}
		}
	}
	if midEntries == 0 || midHalts == 0 || fallOffs == 0 {
		t.Errorf("programs lack coverage: %d jr entries into a block's middle, %d mid-program halts, %d runs off the end",
			midEntries, midHalts, fallOffs)
	}
}
