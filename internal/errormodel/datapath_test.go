package errormodel

import (
	"context"
	"math"
	"reflect"
	"testing"

	"tsperr/internal/activity"
	"tsperr/internal/cell"
	"tsperr/internal/variation"
)

// TestTableAtMatchesTrainingAtThePeriod pins what makes the datapath table
// period-free: for machines at four conditions, each rebuilt from the
// nominal machine's scales, and at 71 periods each (the machine's analysis,
// PoFF and working periods, and the default operating-point grid's 17
// ratios at 25, 85, -40 and 125 C), every probability of At(T) equals bit
// for bit the reference: StageDTS's form on the row's stimulus shifted by
// T, then P(DTS < 0), or 0 when the stimulus activates no path. Every row
// of the adder, shifter, multiplier and logic unit is checked, the
// untrained ones included, and every trained row's form is the one
// StageDTS gives.
func TestTableAtMatchesTrainingAtThePeriod(t *testing.T) {
	ctx := context.Background()
	scales := testMachine(t).Scales()
	for _, cond := range []cell.OperatingCondition{
		{},
		{VoltageV: 1.0, TempC: 85},
		{VoltageV: 0.95},
		{VoltageV: 1.07},
	} {
		opts := DefaultOptions()
		opts.Cond = cond
		m, err := NewMachineWithScalesContext(ctx, opts, scales)
		if err != nil {
			t.Fatal(err)
		}
		table, err := m.TrainDatapath(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := table.Validate(m.Model.NumPCs()); err != nil {
			t.Fatalf("%v: %v", cond, err)
		}
		periods := []float64{m.AnalysisPeriodPs, m.PoFFPeriodPs, m.WorkingPeriodPs}
		for _, temp := range []float64{25, 85, -40, 125} {
			at := cell.OperatingCondition{VoltageV: cond.Norm().VoltageV, TempC: temp}
			for i := 0; i <= 16; i++ {
				ratio := 1.3
				if i < 16 {
					ratio = 1.0 + 0.3*float64(i)/16
				}
				periods = append(periods, m.PeriodPs(at, ratio))
			}
		}
		models := make([]*DatapathModel, len(periods))
		for i, p := range periods {
			models[i] = table.At(p)
		}

		sweeps := m.datapathSweeps(table, []variation.Canon{table.Logic})
		checked := 0
		for u := range sweeps {
			s := &sweeps[u]
			sim, err := activity.Compile(s.n)
			if err != nil {
				t.Fatal(err)
			}
			eps := s.n.DataEndpoints(0)
			for r, row := range s.rows {
				var tr *activity.Trace
				if r >= s.first {
					if tr, err = s.trace(sim, r); err != nil {
						t.Fatal(err)
					}
				}
				for i, period := range periods {
					want := 0.0
					if tr != nil {
						if form, ok := s.dta.StageDTS(eps, 1, tr); ok {
							want = form.AddConst(period).ProbBelow(0)
							if math.Float64bits(row.Mean) != math.Float64bits(form.Mean) ||
								math.Float64bits(row.Rand) != math.Float64bits(form.Rand) || !reflect.DeepEqual(row.Sens, form.Sens) {
								t.Fatalf("%v unit %d row %d: the trained row is not StageDTS's form", cond, u, r)
							}
						} else if len(row.Sens) != 0 {
							t.Fatalf("%v unit %d row %d: trained, but no path is activated", cond, u, r)
						}
					} else if len(row.Sens) != 0 || row.Mean != 0 || row.Rand != 0 {
						t.Fatalf("%v unit %d row %d: no stimulus, but the row is %+v", cond, u, r, row)
					}
					dp := models[i]
					got := [4][]float64{dp.AdderFail, dp.ShiftFail, dp.MulFail, {dp.LogicFail}}[u][r]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v unit %d row %d at %v ps: At gives %v, a training at the period %v", cond, u, r, period, got, want)
					}
					checked++
				}
			}
		}
		if want := len(periods) * (33 + 6 + 17 + 1); len(periods) != 71 || checked != want {
			t.Fatalf("%v: checked %d probabilities at %d periods, want %d at 71", cond, checked, len(periods), want)
		}
	}
}
