package harness

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/mibench"
)

func TestAnalyzeAtPointValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := New(cell.OperatingCondition{VoltageV: 9}, ""); err == nil {
		t.Error("engine at an absurd voltage accepted")
	}
	e := newEngine(cell.OperatingCondition{}, "")
	if _, err := e.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{},
		cell.OperatingCondition{VoltageV: 9}, 0); err == nil {
		t.Error("absurd voltage accepted")
	}
	for _, ratio := range []float64{-1, math.Inf(1), math.NaN()} {
		if _, err := e.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{},
			cell.OperatingCondition{}, ratio); err == nil {
			t.Errorf("ratio %v accepted", ratio)
		}
	}
	// Unknown benchmarks fail before any framework is built.
	if _, err := e.AnalyzeAt(ctx, "nonesuch", 2, core.AnalyzeOpts{},
		cell.OperatingCondition{VoltageV: 0.9}, 1.1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestConditionRegistryLRU pins the registry bound: at most
// maxConditionFrameworks entries live at once, the coldest is evicted, and
// re-access refreshes recency.
func TestConditionRegistryLRU(t *testing.T) {
	e := newEngine(cell.OperatingCondition{}, "")
	keys := []string{"a", "b", "c", "d"}
	entries := make(map[string]*condEntry)
	for _, k := range keys {
		entries[k] = e.conditionEntry(k)
	}
	// Touch "a" so "b" becomes the coldest, then overflow the bound.
	if got := e.conditionEntry("a"); got != entries["a"] {
		t.Fatal("re-access did not return the existing entry")
	}
	e.conditionEntry("e")
	e.condMu.Lock()
	_, aLives := e.condFWs["a"]
	_, bLives := e.condFWs["b"]
	n := len(e.condFWs)
	e.condMu.Unlock()
	if n != maxConditionFrameworks {
		t.Errorf("registry holds %d entries, bound is %d", n, maxConditionFrameworks)
	}
	if !aLives {
		t.Error("recently used entry was evicted")
	}
	if bLives {
		t.Error("coldest entry survived the overflow")
	}
	// An evicted condition transparently gets a fresh entry on next use.
	if got := e.conditionEntry("b"); got == entries["b"] {
		t.Error("evicted entry was resurrected instead of rebuilt")
	}
}

// registrySize reads the number of per-condition frameworks e holds.
func registrySize(e *Engine) int {
	e.condMu.Lock()
	defer e.condMu.Unlock()
	return len(e.condFWs)
}

// maskedJSON is a report's wire form with the wall-clock Training and
// Simulation durations zeroed: everything else must agree to the byte
// between two routes to the same analysis.
func maskedJSON(t *testing.T, rep *core.Report) string {
	t.Helper()
	r := *rep
	r.Training, r.Simulation = 0, 0
	buf, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestAnalyzeAtPointDelegatesAtDefaultPoint pins the default point: the
// engine's condition at the default working ratio is the plain analysis —
// bit-for-bit, on the engine's framework, with no registry machine built.
func TestAnalyzeAtPointDelegatesAtDefaultPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	ctx := context.Background()
	plain, err := nominal.Analyze(ctx, "patricia", 2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	before := registrySize(nominal)
	for _, tc := range []struct {
		name  string
		cond  cell.OperatingCondition
		ratio float64
	}{
		{"zero condition, zero ratio", cell.OperatingCondition{}, 0},
		{"explicit nominal, default ratio",
			cell.Nominal(), errormodel.DefaultOptions().WorkingRatio},
	} {
		at, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, tc.cond, tc.ratio)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if a, b := maskedJSON(t, plain), maskedJSON(t, at); a != b {
			t.Errorf("%s: report differs from the plain path\nplain: %s\nat:    %s",
				tc.name, a, b)
		}
	}
	if after := registrySize(nominal); after != before {
		t.Errorf("default-point analysis built %d registry frameworks", after-before)
	}
}

// TestAnalyzeAtOwnConditionOtherRatio pins that a ratio override at the
// engine's own condition runs on the engine's framework: no registry
// framework is built, and the report is, byte for byte, AnalyzeAtRatio's on
// a fresh framework at that condition.
func TestAnalyzeAtOwnConditionOtherRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	ctx := context.Background()
	at, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, cell.Nominal(), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	nominal.condMu.Lock()
	_, built := nominal.condFWs[cell.Nominal().String()]
	nominal.condMu.Unlock()
	if built {
		t.Error("an override at the engine's own condition built a registry framework")
	}
	fresh, err := core.NewFramework(nominal.Options())
	if err != nil {
		t.Fatal(err)
	}
	b, err := mibench.ByName("patricia")
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.AnalyzeAtRatio(ctx, b.Name, SpecFor(b, 2), 1.2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := maskedJSON(t, want), maskedJSON(t, at); a != b {
		t.Errorf("override differs from AnalyzeAtRatio on a fresh framework\nfresh: %s\nat:    %s", a, b)
	}
}

// TestAnalyzeAtPointDroopRaisesErrorRate runs the registry path end to end:
// a droop-and-heat corner at the same ratio must not lower the error rate
// (the scaling law only inflates delays), and repeated calls reuse the
// registry entry.
func TestAnalyzeAtPointDroopRaisesErrorRate(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	ctx := context.Background()
	plain, err := nominal.Analyze(ctx, "patricia", 2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	droop := cell.OperatingCondition{VoltageV: 1.0, TempC: 85}
	rep, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, droop, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, base := rep.Estimate.MeanErrorRate(), plain.Estimate.MeanErrorRate(); got < base {
		t.Errorf("droop corner lowered the error rate: %v < %v", got, base)
	}
	nominal.condMu.Lock()
	entry := nominal.condFWs[droop.String()]
	nominal.condMu.Unlock()
	if entry == nil {
		t.Fatal("droop analysis did not populate the registry")
	}
	entry.mu.Lock()
	built := entry.fw != nil
	entry.mu.Unlock()
	if !built {
		t.Fatal("droop analysis left its registry entry unbuilt")
	}
	// A second call must reuse the same framework, not rebuild.
	if _, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, droop, 1.1); err != nil {
		t.Fatal(err)
	}
	nominal.condMu.Lock()
	same := nominal.condFWs[droop.String()] == entry
	nominal.condMu.Unlock()
	if !same {
		t.Error("second analysis at the same condition rebuilt the registry entry")
	}
}

// TestEnginesAreIndependent holds a nominal engine and a 1.0 V / 85 C engine
// in one process. Each keeps its own framework, options and memos, and the
// droop engine's plain analysis is the nominal engine's analysis at that
// condition and the default ratio, byte for byte.
func TestEnginesAreIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds frameworks at two operating conditions")
	}
	ctx := context.Background()
	droop := cell.OperatingCondition{VoltageV: 1.0, TempC: 85}
	hot := newEngine(droop, "")
	own, err := hot.Analyze(ctx, "patricia", 2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	at, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, droop, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := maskedJSON(t, own), maskedJSON(t, at); a != b {
		t.Errorf("droop engine's analysis differs from the nominal engine's at the droop point\nown: %s\nat:  %s", a, b)
	}

	nf, err := nominal.Framework()
	if err != nil {
		t.Fatal(err)
	}
	hf, err := hot.Framework()
	if err != nil {
		t.Fatal(err)
	}
	if nf == hf {
		t.Error("the two engines share a framework")
	}
	if !hot.Options().Cond.Equal(droop) || !nominal.Options().Cond.IsNominal() {
		t.Errorf("options conditions: hot %v, nominal %v", hot.Options().Cond, nominal.Options().Cond)
	}
	if n := registrySize(hot); n != 0 {
		t.Errorf("the droop engine's registry holds %d frameworks; only the nominal engine visited another condition", n)
	}
}
