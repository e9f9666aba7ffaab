package dta

import (
	"math"
	"sync"
	"testing"

	"tsperr/internal/activity"
	"tsperr/internal/cell"
	"tsperr/internal/gen"
	"tsperr/internal/netlist"
	"tsperr/internal/sta"
	"tsperr/internal/variation"
)

func newModel(t *testing.T) *variation.Model {
	t.Helper()
	m, err := variation.NewModel(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// simulate compiles n and runs one cycle per call of set, which drives that
// cycle's inputs.
func simulate(t *testing.T, n *netlist.Netlist, cycles int, set func(c int, in activity.Inputs)) *activity.Trace {
	t.Helper()
	sim, err := activity.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(cycles, set)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// adderFixture simulates the adder for the given operand sequence and
// returns an analyzer plus the trace.
func adderFixture(t *testing.T, period float64, ops [][2]uint32) (*Analyzer, *activity.Trace, *gen.AdderNet) {
	t.Helper()
	ad := gen.Adder()
	e, err := sta.NewEngine(ad.N, newModel(t), period, cell.SigmaRel, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := simulate(t, ad.N, len(ops), func(c int, in activity.Inputs) {
		in.SetWord(ad.A[:], uint64(ops[c][0]))
		in.SetWord(ad.B[:], uint64(ops[c][1]))
	})
	return New(e, 8), tr, ad
}

func TestStageDTSTracksActivatedDepth(t *testing.T) {
	// Cycle 0: zeros (settle). Cycle 1: short carry. Cycle 2: zeros.
	// Cycle 3: full-length carry chain.
	a, tr, ad := adderFixture(t, 2500, [][2]uint32{
		{0, 0}, {1, 1}, {0, 0}, {0xFFFFFFFF, 1},
	})
	eps := ad.N.Endpoints(0)
	shortDTS, ok1 := a.StageDTS(eps, 1, tr)
	longDTS, ok2 := a.StageDTS(eps, 3, tr)
	if !ok1 || !ok2 {
		t.Fatal("both cycles should have activated paths")
	}
	if longDTS.Mean >= shortDTS.Mean {
		t.Errorf("full carry chain must have less slack: short=%v long=%v",
			shortDTS.Mean, longDTS.Mean)
	}
}

func TestStageDTSNoActivation(t *testing.T) {
	a, tr, ad := adderFixture(t, 2500, [][2]uint32{
		{0, 0}, {5, 3}, {5, 3}, {5, 3},
	})
	eps := ad.N.Endpoints(0)
	// Cycle 2: identical operands, combinational logic quiet; only sum FFs
	// captured values. Most endpoints should see no activated full path.
	if _, ok := a.StageDTS(eps, 3, tr); ok {
		t.Error("steady-state cycle should have no activated endpoint paths")
	}
}

func TestErrorProbabilityMonotoneInPeriod(t *testing.T) {
	a, tr, ad := adderFixture(t, 2500, [][2]uint32{{0, 0}, {0xFFFFFFFF, 1}})
	form, ok := a.StageDTS(ad.N.Endpoints(0), 1, tr)
	if !ok {
		t.Fatal("expected activated paths")
	}
	pFast := ErrorProbability(form.Mean+1700, form.Std())
	pSlow := ErrorProbability(form.Mean+2600, form.Std())
	if pFast <= pSlow {
		t.Errorf("shorter period must raise error probability: fast=%v slow=%v", pFast, pSlow)
	}
	if pSlow < 0 || pFast > 1 {
		t.Error("probabilities out of range")
	}
}

func TestInstDTSMinOverStages(t *testing.T) {
	// Control network: instruction flows through stages; InstDTSSets should be
	// at most the minimum of the individual stage DTS values (statistical
	// min can only reduce the mean).
	c := gen.Control()
	e, err := sta.NewEngine(c.N, newModel(t), 1600, cell.SigmaRel, 1)
	if err != nil {
		t.Fatal(err)
	}
	words := []uint32{0x04211000, 0x58E70FFC, 0x04211000, 0x2C850008, 0x04211000, 0x58E70FFC, 0x04211000}
	tr := simulate(t, c.N, len(words), func(cyc int, in activity.Inputs) {
		in.SetWord(c.Instr[:], uint64(words[cyc]))
		in.SetWord(c.ExResult[:], uint64(words[cyc]^0x5A5A5A5A))
	})
	a := New(e, 8)
	inst, ok := a.InstDTSSets(1, tr, a.StageSets(nil))
	if !ok {
		t.Fatal("expected instruction DTS")
	}
	for s := 0; s < c.N.Stages; s++ {
		if f, ok := a.StageDTS(c.N.Endpoints(s), 1+s, tr); ok {
			if inst.Mean > f.Mean+1 {
				t.Errorf("instruction DTS mean %v exceeds stage %d DTS %v", inst.Mean, s, f.Mean)
			}
		}
	}
	// Control-endpoint restriction must also work.
	ctrl := a.StageSets(func(g *netlist.Gate) bool { return !g.Data })
	if _, ok := a.InstDTSSets(1, tr, ctrl); !ok {
		t.Error("control-only instruction DTS should exist")
	}
}

func TestAnalyzerCaching(t *testing.T) {
	a, tr, ad := adderFixture(t, 2500, [][2]uint32{{0, 0}, {3, 1}})
	eps := ad.N.Endpoints(0)
	d1, ok1 := a.StageDTS(eps, 1, tr)
	d2, ok2 := a.StageDTS(eps, 1, tr)
	if ok1 != ok2 || math.Abs(d1.Mean-d2.Mean) > 1e-12 {
		t.Error("cached recomputation should be identical")
	}
	a.mu.Lock()
	populated := len(a.cache) > 0
	a.mu.Unlock()
	if !populated {
		t.Error("cache should be populated")
	}
}

func TestNewDefaultK(t *testing.T) {
	a := New(nil, 0)
	if a.K <= 0 {
		t.Error("K must default to a positive value")
	}
}

// memoSize reads the stage-memo size under the analyzer lock.
func memoSize(a *Analyzer) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.stage)
}

// TestStageDTSMemo asserts that the activation-signature memo returns
// bit-identical forms to a fresh analyzer evaluating the same cycle, and
// that distinct activation patterns get distinct entries.
func TestStageDTSMemo(t *testing.T) {
	ops := [][2]uint32{{0, 0}, {0xFFFF, 1}, {0, 0}, {0xFFFF, 1}}
	a, tr, ad := adderFixture(t, 2500, ops)
	eps := ad.N.Endpoints(0)
	// Cycles 1 and 3 apply the same stimulus after a zero cycle, so their
	// activation signatures match and the memo must serve cycle 3.
	d1, ok1 := a.StageDTS(eps, 1, tr)
	before := memoSize(a)
	d3, ok3 := a.StageDTS(eps, 3, tr)
	if !ok1 || !ok3 {
		t.Fatal("expected activated paths at cycles 1 and 3")
	}
	if after := memoSize(a); after != before {
		t.Errorf("identical signature must hit the memo: %d -> %d entries", before, after)
	}
	if d1.Mean != d3.Mean || d1.Rand != d3.Rand {
		t.Errorf("memoized form differs: %v vs %v", d1.Mean, d3.Mean)
	}
	// A fresh analyzer recomputing cycle 3 from scratch must agree exactly.
	fresh := New(a.Engine, a.K)
	df, okf := fresh.StageDTS(eps, 3, tr)
	if !okf || df.Mean != d3.Mean || df.Rand != d3.Rand {
		t.Errorf("fresh recomputation differs: %v vs %v", df.Mean, d3.Mean)
	}
}

// TestStageDTSMemoHitZeroAlloc pins the memo-hit fast path: once a stage
// signature is memoized, re-querying it must not allocate — the key is built
// on the stack and the memoized form is returned as it is stored.
func TestStageDTSMemoHitZeroAlloc(t *testing.T) {
	ops := [][2]uint32{{0, 0}, {0xFFFF, 1}, {0, 0}, {0xFFFF, 1}}
	a, tr, ad := adderFixture(t, 2500, ops)
	eps := ad.N.Endpoints(0)
	if _, ok := a.StageDTS(eps, 1, tr); !ok {
		t.Fatal("expected activated paths at cycle 1")
	}
	hit := true
	allocs := testing.AllocsPerRun(100, func() {
		_, ok := a.StageDTS(eps, 3, tr)
		hit = hit && ok
	})
	if !hit {
		t.Fatal("memo hit lost the activation result")
	}
	if allocs != 0 {
		t.Errorf("StageDTS memo hit allocates %.1f objects per call, want 0", allocs)
	}
}

// TestAnalyzerConcurrent drives one analyzer from many goroutines (run under
// -race in make check) and checks every goroutine observes identical values.
func TestAnalyzerConcurrent(t *testing.T) {
	ops := [][2]uint32{{0, 0}, {0xFFFFFFFF, 1}, {1, 1}, {0xFF, 0xFF00}}
	a, tr, ad := adderFixture(t, 2500, ops)
	eps := ad.N.Endpoints(0)
	const workers = 8
	means := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, cyc := range []int{1, 2, 3, 1, 2, 3} {
				if f, ok := a.StageDTS(eps, cyc, tr); ok {
					means[w] = append(means[w], f.Mean)
				} else {
					means[w] = append(means[w], math.NaN())
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(means[w]) != len(means[0]) {
			t.Fatalf("worker %d saw %d results, want %d", w, len(means[w]), len(means[0]))
		}
		for i := range means[w] {
			same := means[w][i] == means[0][i] ||
				(math.IsNaN(means[w][i]) && math.IsNaN(means[0][i]))
			if !same {
				t.Errorf("worker %d cycle-slot %d: %v vs %v", w, i, means[w][i], means[0][i])
			}
		}
	}
}

// sameForm reports whether two canonical forms agree bit for bit.
func sameForm(x, y variation.Canon) bool {
	if math.Float64bits(x.Mean) != math.Float64bits(y.Mean) ||
		math.Float64bits(x.Rand) != math.Float64bits(y.Rand) || len(x.Sens) != len(y.Sens) {
		return false
	}
	for i := range x.Sens {
		if math.Float64bits(x.Sens[i]) != math.Float64bits(y.Sens[i]) {
			return false
		}
	}
	return true
}

// TestStageDTSIsClockFree pins the clock-free contract: analyzers whose
// engines were built at 2500 and 1700 ps return, bit for bit, the same
// form, and repeated queries of one signature share one memo entry.
func TestStageDTSIsClockFree(t *testing.T) {
	a, tr, ad := adderFixture(t, 2500, [][2]uint32{{0, 0}, {0xFFFFFFFF, 1}})
	eps := ad.N.Endpoints(0)
	want, ok := a.StageDTS(eps, 1, tr)
	if !ok {
		t.Fatal("expected activated paths")
	}
	e, err := sta.NewEngine(ad.N, a.Engine.Model, 1700, cell.SigmaRel, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, an := range []*Analyzer{a, New(e, a.K)} {
		got, ok := an.StageDTS(eps, 1, tr)
		if !ok || !sameForm(got, want) {
			t.Errorf("engine at %v ps: form %+v (%v), want %+v", an.Engine.ClockPeriod, got, ok, want)
		}
	}
	if n := memoSize(a); n != 1 {
		t.Errorf("two queries of one signature left %d memo entries, want 1", n)
	}
}

// TestStageDTSLargeSet covers a set with more candidate paths than the
// stack key holds: its heap-built key memoizes the same way, and its forms
// equal a fresh analyzer's bit for bit.
func TestStageDTSLargeSet(t *testing.T) {
	ops := [][2]uint32{{0, 0}, {0xFFFF, 1}, {0, 0}, {0xFFFF, 1}}
	small, tr, ad := adderFixture(t, 2500, ops)
	const k = 64
	a := New(small.Engine, k)
	eps := ad.N.Endpoints(0)
	set := a.internSet(eps)
	set.resolve(a)
	if set.bits <= stageKeyPaths {
		t.Fatalf("fixture set has %d candidate paths, want more than %d", set.bits, stageKeyPaths)
	}
	d1, ok1 := a.StageDTS(eps, 1, tr)
	before := memoSize(a)
	d3, ok3 := a.StageDTS(eps, 3, tr)
	if !ok1 || !ok3 {
		t.Fatal("expected activated paths at cycles 1 and 3")
	}
	if after := memoSize(a); after != before {
		t.Errorf("identical signature must hit the memo: %d -> %d entries", before, after)
	}
	fresh := New(a.Engine, k)
	df, okf := fresh.StageDTS(eps, 3, tr)
	if !okf || !sameForm(d1, d3) || !sameForm(df, d3) {
		t.Errorf("large-set forms differ: cycle 1 %v, cycle 3 %v, fresh %v", d1.Mean, d3.Mean, df.Mean)
	}
}
