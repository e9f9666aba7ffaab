// Package errormodel implements the paper's instruction error model
// (Section 4): control-network DTS characterization per basic block and
// incoming edge, the trained higher-level datapath timing model of [2], the
// nop-instrumentation extraction of error-conditioned probabilities (Section
// 4.1), and the marginal error probability computation of Section 4.2
// (recurrence within blocks, linear systems per CFG strongly connected
// component).
package errormodel

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"tsperr/internal/activity"
	"tsperr/internal/cell"
	"tsperr/internal/dta"
	"tsperr/internal/gen"
	"tsperr/internal/netlist"
	"tsperr/internal/pool"
	"tsperr/internal/sta"
	"tsperr/internal/variation"
)

// Options configure the modeled silicon and operating point, mirroring the
// experimental setup of Section 6.1.
type Options struct {
	// BaseFreqMHz is the non-speculative (STA sign-off) frequency.
	BaseFreqMHz float64
	// PoFFRatio is the point-of-first-failure frequency over base (1.13).
	PoFFRatio float64
	// WorkingRatio is the speculative operating frequency over base (1.15).
	WorkingRatio float64
	// SigmaRel is the per-gate relative delay sigma.
	SigmaRel float64
	// VariationLevels and CorrShare parameterize the quad-tree model.
	VariationLevels int
	CorrShare       float64
	// KPaths is the per-endpoint critical path count for DTA.
	KPaths int
	// Unit delay balancing: each unit's statistically-worst delay is placed
	// at this fraction of the PoFF period (the adder at 1.0 defines PoFF).
	ControlRatio, ShifterRatio, LogicRatio, MultiplierRatio float64
	// CalibrationPercentile is the max-delay quantile pinned to the PoFF
	// period (errors first appear when the clock intrudes into the upper
	// tail of the critical-delay distribution).
	CalibrationPercentile float64
	// Cond is the operating condition (supply voltage, temperature) the
	// machine serves at. The zero value is the nominal condition and
	// reproduces pre-condition behavior bit-exactly. Calibration always
	// runs at the nominal condition — the delay scale is a design
	// property. The condition enters as two numbers: its SigmaFactor
	// multiplies the relative sigma of the machine's engines, and its
	// DelayFactor divides the clock period the machine's analyses run at
	// (PeriodPs). Cond is part of the model-cache key (the cache hashes
	// Options with %+v), so snapshots never mix conditions.
	Cond cell.OperatingCondition
}

// DefaultOptions returns the paper's setup.
func DefaultOptions() Options {
	return Options{
		BaseFreqMHz:           718,
		PoFFRatio:             1.13,
		WorkingRatio:          1.15,
		SigmaRel:              cell.SigmaRel,
		VariationLevels:       2,
		CorrShare:             0.5,
		KPaths:                6,
		ControlRatio:          0.97,
		ShifterRatio:          0.90,
		LogicRatio:            0.85,
		MultiplierRatio:       0.95,
		CalibrationPercentile: 0.99,
	}
}

// Machine bundles the generated netlists, their SSTA engines, and DTA
// analyzers at a chosen operating point.
type Machine struct {
	Opts  Options
	Model *variation.Model

	Ctrl    *gen.ControlNet
	Adder   *gen.AdderNet
	Shifter *gen.ShifterNet
	Logic   *gen.LogicNet
	Mult    *gen.MultiplierNet

	// BasePeriodPs, PoFFPeriodPs and WorkingPeriodPs are the physical clock
	// periods of the three operating points in picoseconds. The engines carry
	// AnalysisPeriodPs, PeriodPs at Opts.Cond and WorkingRatio; an analysis
	// at another period passes it to the period-taking methods.
	BasePeriodPs     float64
	PoFFPeriodPs     float64
	WorkingPeriodPs  float64
	AnalysisPeriodPs float64

	CtrlEngine    *sta.Engine
	AdderEngine   *sta.Engine
	ShifterEngine *sta.Engine
	LogicEngine   *sta.Engine
	MultEngine    *sta.Engine

	CtrlDTA    *dta.Analyzer
	AdderDTA   *dta.Analyzer
	ShifterDTA *dta.Analyzer
	LogicDTA   *dta.Analyzer
	MultDTA    *dta.Analyzer

	// stim memoizes the period-free control DTS of each stimulus across
	// blocks, programs and clock periods (see control.go);
	// ClearStimulusMemo swaps in an empty one.
	stim atomic.Pointer[pool.Memo[string, []instDTS]]

	// ctrlSim is the control network compiled for simulation, set by
	// newMachine.
	ctrlSim *activity.Sim

	// ctrlSets holds the per-stage control-only endpoint sets of the control
	// network, computed once so the per-instruction DTS queries of the
	// characterization skip per-call set construction (immutable after
	// newMachine).
	ctrlSets [][]netlist.GateID
}

// NewMachine generates the netlists and calibrates each unit's delay scale
// so that the design's point of first failure and working point sit at the
// configured ratios of the base frequency.
func NewMachine(opts Options) (*Machine, error) {
	return NewMachineContext(context.Background(), opts)
}

// NewMachineContext is NewMachine with cancellable calibration: once ctx is
// done, no unit starts its SSTA calibration and the call returns ctx's
// error. A unit already calibrating runs to the end of its path search
// first.
func NewMachineContext(ctx context.Context, opts Options) (*Machine, error) {
	return newMachine(ctx, opts, nil)
}

// NewMachineWithScalesContext rebuilds a machine from previously
// calibrated per-unit delay scales keyed by netlist name, skipping the
// expensive SSTA calibration of each unit. It is the warm path of the
// persistent model cache and the build of a framework at another voltage:
// the netlists regenerate deterministically and calibration never reads
// the condition, so a machine rebuilt with the scales of an earlier
// NewMachine call is that machine at opts' condition. A missing,
// non-positive or non-finite scale is an error (the caller should fall
// back to full calibration).
func NewMachineWithScalesContext(ctx context.Context, opts Options, scales map[string]float64) (*Machine, error) {
	if scales == nil {
		return nil, fmt.Errorf("errormodel: nil scale table")
	}
	return newMachine(ctx, opts, scales)
}

// Scales returns the calibrated per-unit delay scales keyed by netlist name,
// the input NewMachineWithScalesContext needs to reconstruct this machine.
func (m *Machine) Scales() map[string]float64 {
	out := make(map[string]float64, 5)
	for _, e := range []*sta.Engine{
		m.AdderEngine, m.CtrlEngine, m.ShifterEngine, m.LogicEngine, m.MultEngine,
	} {
		out[e.N.Name] = e.DelayScale
	}
	return out
}

func newMachine(ctx context.Context, opts Options, scales map[string]float64) (*Machine, error) {
	if opts.BaseFreqMHz <= 0 || opts.WorkingRatio <= 0 || opts.PoFFRatio <= 0 {
		return nil, fmt.Errorf("errormodel: non-positive frequency configuration")
	}
	// Reject the quantile here, at the input boundary: downstream it feeds
	// NormalQuantile on the calibration path, which must never see an
	// out-of-domain probability.
	if !(opts.CalibrationPercentile > 0 && opts.CalibrationPercentile < 1) {
		return nil, fmt.Errorf("errormodel: CalibrationPercentile %v outside (0, 1)",
			opts.CalibrationPercentile)
	}
	if err := opts.Cond.Validate(); err != nil {
		return nil, err
	}
	model, err := variation.NewModel(opts.VariationLevels, opts.CorrShare)
	if err != nil {
		return nil, err
	}
	m := &Machine{Opts: opts, Model: model}
	m.ClearStimulusMemo()
	m.Ctrl = gen.Control()
	m.Adder = gen.Adder()
	m.Shifter = gen.Shifter()
	m.Logic = gen.Logic()
	m.Mult = gen.Multiplier()

	m.BasePeriodPs = 1e6 / opts.BaseFreqMHz
	m.PoFFPeriodPs = m.BasePeriodPs / opts.PoFFRatio
	m.WorkingPeriodPs = m.BasePeriodPs / opts.WorkingRatio
	m.AnalysisPeriodPs = m.PeriodPs(opts.Cond, opts.WorkingRatio)
	sigmaRel := opts.SigmaRel * opts.Cond.SigmaFactor()

	type unit struct {
		n     *netlist.Netlist
		ratio float64
		eng   **sta.Engine
		ana   **dta.Analyzer
	}
	units := []unit{
		{m.Adder.N, 1.0, &m.AdderEngine, &m.AdderDTA},
		{m.Ctrl.N, opts.ControlRatio, &m.CtrlEngine, &m.CtrlDTA},
		{m.Shifter.N, opts.ShifterRatio, &m.ShifterEngine, &m.ShifterDTA},
		{m.Logic.N, opts.LogicRatio, &m.LogicEngine, &m.LogicDTA},
		{m.Mult.N, opts.MultiplierRatio, &m.MultEngine, &m.MultDTA},
	}
	// The five units calibrate independently (each owns its netlist, engine,
	// and analyzer slot), so the SSTA calibration — the dominant cost of
	// machine construction — runs on the shared bounded worker pool. A
	// cached scale table (warm start) skips calibration entirely.
	errs := make([]error, len(units))
	pool.Run(ctx, len(units), 0, false, errs, func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		u := units[i]
		var scale float64
		if scales != nil {
			scale = scales[u.n.Name]
			if !(scale > 0) || math.IsInf(scale, 1) {
				return fmt.Errorf("errormodel: no finite positive cached scale for %s", u.n.Name)
			}
		} else {
			target := m.PoFFPeriodPs * u.ratio
			var err error
			scale, err = gen.CalibrateScale([]*netlist.Netlist{u.n}, model,
				opts.SigmaRel, target, opts.CalibrationPercentile, opts.KPaths)
			if err != nil {
				return fmt.Errorf("errormodel: calibrating %s: %w", u.n.Name, err)
			}
		}
		e, err := sta.NewEngine(u.n, model, m.AnalysisPeriodPs, sigmaRel, scale)
		if err != nil {
			return err
		}
		*u.eng = e
		*u.ana = dta.New(e, opts.KPaths)
		return nil
	})
	if err := pool.FirstError(errs); err != nil {
		return nil, err
	}
	m.ctrlSets = m.CtrlDTA.StageSets(func(g *netlist.Gate) bool { return !g.Data })
	if m.ctrlSim, err = activity.Compile(m.Ctrl.N); err != nil {
		return nil, err
	}
	return m, nil
}

// WorkingFreqMHz returns the speculative operating frequency.
func (m *Machine) WorkingFreqMHz() float64 { return 1e6 / m.WorkingPeriodPs }

// PeriodPs returns the clock period in ps an analysis at operating
// condition cond and frequency ratio ratio runs at: BasePeriodPs / (ratio ×
// DelayFactor). The V/T law multiplies every delay, setup time included, by
// DelayFactor; dividing the period by it instead is the same time scale, and
// the one place the factor enters the model.
func (m *Machine) PeriodPs(cond cell.OperatingCondition, ratio float64) float64 {
	return m.BasePeriodPs / (ratio * cond.DelayFactor())
}
