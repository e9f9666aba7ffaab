package core

import (
	"context"
	"encoding/json"
	"testing"

	"tsperr/internal/isa"
)

// batchItem builds one suite entry over the shared test fixture program.
func batchItem(name string, scenarios int, opts AnalyzeOpts) BatchItem {
	return BatchItem{
		Name: name,
		Spec: ProgramSpec{Prog: isa.MustAssemble("sumloop", fwProg), Setup: fwSetup, Scenarios: scenarios},
		Opts: opts,
	}
}

// TestBatchMatchesSerialPath pins the tentpole acceptance criterion: for
// every item in the suite the batch report is bit-identical to the serial
// single-scenario path (a direct AnalyzeWithOpts call with the same inputs).
func TestBatchMatchesSerialPath(t *testing.T) {
	f := testFramework(t)
	items := []BatchItem{
		batchItem("a", 2, AnalyzeOpts{}),
		batchItem("b", 3, AnalyzeOpts{MCTrials: 400, MCSeed: 7}),
		batchItem("a", 2, AnalyzeOpts{Workers: 3}),
	}
	batch, err := f.EstimateBatch(context.Background(), items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Computed != 2 {
		// Items 0 and 2 differ only in Workers — a scheduling knob — so they
		// share a key and one computation.
		t.Errorf("computed = %d, want 2", batch.Computed)
	}
	for i, it := range items {
		got := batch.Items[i]
		if got.Err != nil {
			t.Fatalf("item %d: %v", i, got.Err)
		}
		serial, err := f.AnalyzeWithOpts(context.Background(), it.Name, it.Spec, it.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Report.Name != it.Name && !got.Dedup {
			t.Errorf("item %d: name %q", i, got.Report.Name)
		}
		// The wire schema is the stable projection both paths share; the
		// lambda samples underneath must also agree exactly.
		gotJSON, _ := json.Marshal(got.Report.Estimate)
		serialJSON, _ := json.Marshal(serial.Estimate)
		if string(gotJSON) != string(serialJSON) {
			t.Errorf("item %d: batch estimate %s\nserial %s", i, gotJSON, serialJSON)
		}
		for s, l := range got.Report.Estimate.LambdaSamples {
			if l != serial.Estimate.LambdaSamples[s] {
				t.Errorf("item %d scenario %d: lambda %v vs serial %v", i, s, l, serial.Estimate.LambdaSamples[s])
			}
		}
		if (got.Report.MC == nil) != (serial.MC == nil) {
			t.Fatalf("item %d: MC presence differs", i)
		}
		if got.Report.MC != nil {
			if got.Report.MC.Mean != serial.MC.Mean || got.Report.MC.MaxCDFDistance != serial.MC.MaxCDFDistance {
				t.Errorf("item %d: MC %+v vs serial %+v", i, got.Report.MC, serial.MC)
			}
		}
	}
}

// TestBatchDedupIdenticalItems pins the dedup criterion: N identical items
// perform exactly one computation.
func TestBatchDedupIdenticalItems(t *testing.T) {
	f := testFramework(t)
	const n = 6
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = batchItem("same", 2, AnalyzeOpts{})
	}
	var streamed []BatchItemResult
	batch, err := f.EstimateBatch(context.Background(), items,
		func(r BatchItemResult) { streamed = append(streamed, r) })
	if err != nil {
		t.Fatal(err)
	}
	if batch.Computed != 1 || batch.Deduped != n-1 {
		t.Fatalf("computed %d deduped %d, want 1 and %d", batch.Computed, batch.Deduped, n-1)
	}
	if len(streamed) != n {
		t.Fatalf("streamed %d results, want %d", len(streamed), n)
	}
	for i, r := range streamed {
		if r.Index != i {
			t.Errorf("streamed[%d].Index = %d; results must arrive in suite order", i, r.Index)
		}
		if r.Report != batch.Items[0].Report {
			t.Errorf("item %d: deduped items should share the computed report", i)
		}
		if (i > 0) != r.Dedup {
			t.Errorf("item %d: Dedup = %t", i, r.Dedup)
		}
	}
}

func TestBatchKeyExcludesSchedulingKnobs(t *testing.T) {
	base := batchItem("x", 4, AnalyzeOpts{Retries: 2})
	same := base
	same.Opts.Workers = 7
	if base.Key() != same.Key() {
		t.Error("scheduling knobs must not change the batch key")
	}
	for _, mutate := range []func(*BatchItem){
		func(it *BatchItem) { it.Name = "y" },
		func(it *BatchItem) { it.Spec.Scenarios = 5 },
		func(it *BatchItem) { it.Spec.ScaleToInsts = 1 << 20 },
		func(it *BatchItem) { it.Opts.Retries = 3 },
		func(it *BatchItem) { it.Opts.MinScenarios = 1 },
		func(it *BatchItem) { it.Opts.FailFast = true },
		func(it *BatchItem) { it.Opts.MCTrials = 100 },
		func(it *BatchItem) { it.Opts.MCSeed = 9 },
	} {
		changed := base
		mutate(&changed)
		if base.Key() == changed.Key() {
			t.Errorf("result-determining change did not change the key: %+v", changed)
		}
	}
}

func TestBatchErrorHandling(t *testing.T) {
	f := testFramework(t)
	bad := batchItem("bad", 2, AnalyzeOpts{})
	bad.Spec.Scenarios = 0 // invalid: fails fast in AnalyzeWithOpts
	items := []BatchItem{bad, batchItem("good", 2, AnalyzeOpts{})}

	batch, err := f.EstimateBatch(context.Background(), items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Items[0].Err == nil || batch.Items[1].Err != nil {
		t.Fatalf("default mode should continue past failures: %v / %v",
			batch.Items[0].Err, batch.Items[1].Err)
	}
	if batch.Failed != 1 {
		t.Errorf("failed = %d", batch.Failed)
	}

	if _, err := f.EstimateBatch(context.Background(), nil, nil); err == nil {
		t.Error("empty batch should error")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	aborted, err := f.EstimateBatch(ctx, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range aborted.Items {
		if aborted.Items[i].Err == nil {
			t.Errorf("item %d should carry the context error", i)
		}
	}
}

// TestAnalyzeMCValidation exercises the in-pipeline Monte Carlo validation on
// both the plain and the scaled path.
func TestAnalyzeMCValidation(t *testing.T) {
	f := testFramework(t)
	prog := isa.MustAssemble("sumloop", fwProg)
	opts := AnalyzeOpts{MCTrials: 600, MCSeed: 3, Workers: 4}

	rep, err := f.AnalyzeWithOpts(context.Background(), "plain", ProgramSpec{
		Prog: prog, Setup: fwSetup, Scenarios: 2,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	mc := rep.MC
	if mc == nil {
		t.Fatal("MC validation missing")
	}
	if mc.Trials != 600 || mc.Chunks != (600+255)/256 {
		t.Errorf("trials %d chunks %d", mc.Trials, mc.Chunks)
	}
	if mc.UnscaledReference {
		t.Error("unscaled run should not rebuild a reference estimate")
	}
	if !mc.Within {
		t.Errorf("MC validation out of bounds: distance %v > bound %v", mc.MaxCDFDistance, mc.Bound)
	}

	scaled, err := f.AnalyzeWithOpts(context.Background(), "scaled", ProgramSpec{
		Prog: prog, Setup: fwSetup, Scenarios: 2, ScaleToInsts: 5_000_000,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.MC == nil || !scaled.MC.UnscaledReference {
		t.Fatal("scaled run must validate against an unscaled reference")
	}
	if !scaled.MC.Within {
		t.Errorf("scaled MC validation out of bounds: distance %v > bound %v",
			scaled.MC.MaxCDFDistance, scaled.MC.Bound)
	}
	// The scaled estimate's lambda is inflated by the scale factor; the
	// reference the simulation is compared against must not be.
	if scaled.MC.LambdaRef >= scaled.Estimate.LambdaMean {
		t.Errorf("reference lambda %v should be far below scaled lambda %v",
			scaled.MC.LambdaRef, scaled.Estimate.LambdaMean)
	}
}
