package errormodel

import (
	"context"
	"reflect"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/cfg"
	"tsperr/internal/cpu"
	"tsperr/internal/mibench"
)

// TestControlCharacterizationIsPeriodFree pins the clock independence of
// the stimulus memo: once typeset's scenario-0 profile is characterized at
// the machine's analysis period, characterizing it at the 1.0 V/85 C
// analysis period and at 1.26x adds no memo entry, and each table equals,
// bit for bit, a cleared machine's characterization at its period.
func TestControlCharacterizationIsPeriodFree(t *testing.T) {
	ctx := context.Background()
	m := testMachine(t)
	bm, err := mibench.ByName("typeset")
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(bm.Prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(bm.Prog, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if err := bm.Setup(c, 0); err != nil {
		t.Fatal(err)
	}
	tally, st, err := c.RunTally(ctx, trainedModel(ctx, t, m).FailTable())
	if err != nil {
		t.Fatal(err)
	}
	pr := cfg.FromTally(g, tally, st.Instructions)

	periods := []float64{
		m.AnalysisPeriodPs,
		m.PeriodPs(cell.OperatingCondition{VoltageV: 1.0, TempC: 85}, m.Opts.WorkingRatio),
		m.PeriodPs(m.Opts.Cond, 1.26),
	}
	m.ClearStimulusMemo()
	got := make([]*ControlChar, len(periods))
	var entries int
	for i, period := range periods {
		if got[i], err = m.CharacterizeControlWorkers(ctx, g, pr, tally.Result, 0, period); err != nil {
			t.Fatal(err)
		}
		n := m.stim.Load().Len()
		if i == 0 {
			entries = n
		} else if n != entries {
			t.Errorf("characterizing at %v ps took the stimulus memo from %d to %d entries, want no new one", period, entries, n)
		}
	}
	for i, period := range periods {
		m.ClearStimulusMemo()
		want, err := m.CharacterizeControlWorkers(ctx, g, pr, tally.Result, 0, period)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("at %v ps the characterization on a warm memo differs from a cleared machine's", period)
		}
	}
}
