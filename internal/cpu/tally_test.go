package cpu

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"tsperr/internal/isa"
)

// testFailTables are the tables the tally is checked under. The first
// prices every depth of every op, column 0 included, so every class's
// ungated path runs. The second starts each op's nonzero columns at a
// different depth and leaves every fifth op all zero, so the popcount gate
// sits at every height. The values are not dyadic, so a sum taken out of
// retirement order would show in its bits.
func testFailTables() []*FailTable {
	return []*FailTable{
		NewFailTable(func(op isa.Op, d int) float64 { return 1 / float64(3+d+5*int(op)) }),
		NewFailTable(func(op isa.Op, d int) float64 {
			if op%5 == 0 || d < 1+(7*int(op))%32 {
				return 0
			}
			return 1 / float64(7+3*d+int(op))
		}),
	}
}

// streamTally is the reference tally of a DynInst stream: every column is
// read, none is gated, and zero probabilities are skipped as the feature
// observer skips them.
func streamTally(ds []DynInst, n int, ft *FailTable) *Tally {
	t := newTally(n)
	clampDepth := func(d int) int { return max(0, min(d, MaxDepthFeature)) }
	for _, d := range ds {
		i := d.Index
		t.Count[i]++
		t.Result[i] = d.Result
		if d.Taken {
			t.Taken[i]++
			if d.Op == isa.OpJr {
				t.Jumps[Jump{i, int(d.A)}]++
			}
		}
		row := ft.Rows[d.Op]
		if row == nil {
			continue
		}
		if p := row[clampDepth(d.Depth)]; p != 0 {
			t.SumP[i] += p
			p2 := p * p
			t.SumP2[i] += p2
			t.SumP3[i] += p2 * p
			t.SumP4[i] += p2 * p2
		}
		if q := row[clampDepth(d.DepthFlush)]; q != 0 {
			t.SumQ[i] += q
		}
	}
	return t
}

// sameTally requires two tallies to be equal, the float sums bit for bit.
func sameTally(t *testing.T, name string, got, want *Tally) {
	t.Helper()
	if !reflect.DeepEqual(got.Count, want.Count) || !reflect.DeepEqual(got.Taken, want.Taken) ||
		!reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Jumps, want.Jumps) {
		t.Fatalf("%s: counts diverge:\ntally  %+v\nstream %+v", name, got, want)
	}
	sums := func(t *Tally) [][]float64 { return [][]float64{t.SumP, t.SumP2, t.SumP3, t.SumP4, t.SumQ} }
	for k, g := range sums(got) {
		w := sums(want)[k]
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: sum %d of instruction %d is %v, stream %v", name, k, i, g[i], w[i])
			}
		}
	}
}

// pollCtx is a context whose Err reports cancellation from its after-th
// call on, so a run aborts at a chosen poll point.
type pollCtx struct {
	context.Context
	calls, after int
}

func (c *pollCtx) Err() error {
	c.calls++
	if c.calls >= c.after {
		return context.Canceled
	}
	return nil
}

// TestTallyCancelMatchesBatched proves a cancelled tally run stops at the
// same poll point as RunBatched, with the same stats, error and machine
// state, and a tally of exactly the instructions retired before it.
func TestTallyCancelMatchesBatched(t *testing.T) {
	p := &isa.Program{Name: "spin", Insts: []isa.Inst{
		{Op: isa.OpAddi, Rd: 20, Rs1: 20, Imm: 1},
		{Op: isa.OpAdd, Rd: 21, Rs1: 21, Rs2: 20},
		{Op: isa.OpJal, Target: 0},
	}}
	ft := testFailTables()[1]
	for _, after := range []int{1, 2, 4} {
		run := func(tally bool) (*CPU, Stats, error, *Tally, []DynInst) {
			c, err := New(p, oracleConfig())
			if err != nil {
				t.Fatal(err)
			}
			seedCPU(c)
			ctx := &pollCtx{Context: context.Background(), after: after}
			if tally {
				tl, st, err := c.RunTally(ctx, ft)
				return c, st, err, tl, nil
			}
			var ds []DynInst
			st, err := c.RunBatched(ctx, func(b []DynInst) { ds = append(ds, b...) })
			return c, st, err, nil, ds
		}
		bc, bst, berr, _, ds := run(false)
		tc, tst, terr, tl, _ := run(true)
		if !errors.Is(terr, context.Canceled) || berr == nil || terr.Error() != berr.Error() {
			t.Fatalf("after %d polls: tally error %v, batched %v", after, terr, berr)
		}
		if tst != bst || tst.Instructions != int64(after-1)*ctxCheckInterval {
			t.Errorf("after %d polls: tally stats %+v, batched %+v", after, tst, bst)
		}
		sameState(t, "tally", tc, bc)
		sameTally(t, "cancelled", tl, streamTally(ds, len(p.Insts), ft))
	}
}
