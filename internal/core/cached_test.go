package core

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/errormodel"
	"tsperr/internal/isa"
	"tsperr/internal/modelcache"
)

// datapathTablesEqual compares the trained (exported, serialized) tables of
// two datapath models, ignoring the lazily built lookup-table state.
func datapathTablesEqual(a, b *errormodel.DatapathModel) bool {
	return reflect.DeepEqual(a.AdderSlack, b.AdderSlack) &&
		reflect.DeepEqual(a.AdderFail, b.AdderFail) &&
		reflect.DeepEqual(a.ShiftSlack, b.ShiftSlack) &&
		reflect.DeepEqual(a.ShiftFail, b.ShiftFail) &&
		a.LogicFail == b.LogicFail &&
		reflect.DeepEqual(a.MulSlack, b.MulSlack) &&
		reflect.DeepEqual(a.MulFail, b.MulFail)
}

// TestNewFrameworkCachedWarm primes the cache from the shared fixture and
// checks the warm path restores a framework with bit-identical trained
// tables and calibrated scales, without retraining.
func TestNewFrameworkCachedWarm(t *testing.T) {
	f := testFramework(t)
	dir := t.TempDir()
	opts := errormodel.DefaultOptions()
	key := modelcache.Key(opts, cell.Fingerprint())
	if err := modelcache.Save(dir, key, &modelcache.Snapshot{
		Scales:   f.Machine.Scales(),
		Datapath: f.Datapath,
	}); err != nil {
		t.Fatal(err)
	}
	fw, warm, err := NewFrameworkCachedContext(context.Background(), opts, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("primed cache should hit")
	}
	if !datapathTablesEqual(fw.Datapath, f.Datapath) {
		t.Error("restored datapath tables differ from the trained ones")
	}
	if !reflect.DeepEqual(fw.Machine.Scales(), f.Machine.Scales()) {
		t.Errorf("restored scales %v != trained %v", fw.Machine.Scales(), f.Machine.Scales())
	}
	if fw.Machine.WorkingPeriodPs != f.Machine.WorkingPeriodPs {
		t.Error("operating point differs after restore")
	}
}

// TestNewFrameworkCachedColdPublishes exercises the full cold -> publish ->
// warm cycle on an empty cache directory.
func TestNewFrameworkCachedColdPublishes(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework build in -short mode")
	}
	dir := t.TempDir()
	opts := errormodel.DefaultOptions()
	cold, warm, err := NewFrameworkCachedContext(context.Background(), opts, dir)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("empty directory cannot be warm")
	}
	key := modelcache.Key(opts, cell.Fingerprint())
	if _, err := os.Stat(modelcache.Path(dir, key)); err != nil {
		t.Fatalf("cold build should publish a snapshot: %v", err)
	}
	hot, warm, err := NewFrameworkCachedContext(context.Background(), opts, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("second build should be warm")
	}
	if !datapathTablesEqual(hot.Datapath, cold.Datapath) {
		t.Error("warm datapath tables differ from the cold build")
	}
	if !reflect.DeepEqual(hot.Machine.Scales(), cold.Machine.Scales()) {
		t.Error("warm scales differ from the cold build")
	}
}

// TestNewFrameworkCachedRebuildsInvalidSnapshot restores from snapshots
// that decode under the right key but carry a corrupt model. Before the
// load path validated the model, adder tables cut to 3 rows made every
// scenario panic in FailTable, and NaN adder probabilities reported a NaN
// error rate with a verdict. Each must now be a miss: the framework
// rebuilds, reports the clean model's bytes, and overwrites the snapshot
// with one that validates.
func TestNewFrameworkCachedRebuildsInvalidSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework builds in -short mode")
	}
	f := testFramework(t)
	pcs := f.Machine.Model.NumPCs()
	if err := f.Datapath.Validate(pcs); err != nil {
		t.Fatalf("trained model does not validate: %v", err)
	}
	report := func(fw *Framework) []byte {
		t.Helper()
		rep, err := fw.Analyze(context.Background(), "sumloop", ProgramSpec{
			Prog: isa.MustAssemble("sumloop", fwProg), Setup: fwSetup, Scenarios: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Training, rep.Simulation = 0, 0
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := report(f)
	opts := errormodel.DefaultOptions()
	key := modelcache.Key(opts, cell.Fingerprint())
	for _, tc := range []struct {
		name    string
		corrupt func(*modelcache.Snapshot)
	}{
		{"adder tables cut to 3 rows", func(s *modelcache.Snapshot) {
			s.Datapath.AdderSlack, s.Datapath.AdderFail = s.Datapath.AdderSlack[:3], s.Datapath.AdderFail[:3]
		}},
		{"adder probabilities NaN", func(s *modelcache.Snapshot) {
			for d := range s.Datapath.AdderFail {
				s.Datapath.AdderFail[d] = math.NaN()
			}
		}},
		{"a scale NaN", func(s *modelcache.Snapshot) { s.Scales[f.Machine.AdderEngine.N.Name] = math.NaN() }},
	} {
		dir := t.TempDir()
		dp := f.Datapath
		snap := &modelcache.Snapshot{
			Scales: maps.Clone(f.Machine.Scales()),
			Datapath: &errormodel.DatapathModel{
				AdderSlack: dp.AdderSlack, AdderFail: slices.Clone(dp.AdderFail),
				ShiftSlack: dp.ShiftSlack, ShiftFail: dp.ShiftFail,
				MulSlack: dp.MulSlack, MulFail: dp.MulFail,
				LogicFail: dp.LogicFail,
			},
		}
		tc.corrupt(snap)
		if err := modelcache.Save(dir, key, snap); err != nil {
			t.Fatal(err)
		}
		fw, warm, err := NewFrameworkCachedContext(context.Background(), opts, dir)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if warm {
			t.Fatalf("%s: the corrupt snapshot was served", tc.name)
		}
		if got := report(fw); !bytes.Equal(got, want) {
			t.Errorf("%s: report\n%s\nwant the clean model's\n%s", tc.name, got, want)
		}
		re, ok := modelcache.Load(dir, key)
		if !ok {
			t.Fatalf("%s: the rebuild published no snapshot", tc.name)
		}
		if err := re.Datapath.Validate(pcs); err != nil {
			t.Errorf("%s: the snapshot was not overwritten: %v", tc.name, err)
		}
	}
}
