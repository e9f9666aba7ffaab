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
	"tsperr/internal/variation"
)

// TestNewFrameworkCachedWarm primes the cache from the shared fixture and
// checks the warm path restores a framework with a bit-identical datapath
// table and calibrated scales, without retraining.
func TestNewFrameworkCachedWarm(t *testing.T) {
	f := testFramework(t)
	dir := t.TempDir()
	opts := errormodel.DefaultOptions()
	key := modelcache.Key(opts, cell.Fingerprint())
	if err := modelcache.Save(dir, key, &modelcache.Snapshot{
		Scales:   f.Machine.Scales(),
		Datapath: f.table,
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
	if !reflect.DeepEqual(fw.table, f.table) || !reflect.DeepEqual(fw.Datapath.AdderFail, f.Datapath.AdderFail) {
		t.Error("the restored datapath table or its model differs from the trained one")
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
	if !reflect.DeepEqual(hot.table, cold.table) {
		t.Error("the warm datapath table differs from the cold build's")
	}
	if !reflect.DeepEqual(hot.Machine.Scales(), cold.Machine.Scales()) {
		t.Error("warm scales differ from the cold build")
	}
}

// TestNewFrameworkCachedRebuildsInvalidSnapshot restores from snapshots
// that decode under the right key but carry a corrupt model. Before the
// load path validated the model, adder tables cut to 3 rows made every
// scenario panic in FailTable, and NaN adder probabilities reported a NaN
// error rate with a verdict. A sensitivity of 1e200, whose square
// overflows, gives a NaN variance and probability; while snapshots held
// probabilities the stored NaN matched the recomputed one, the snapshot was
// served, and every analysis failed with a non-finite lambda. Each must
// now be a miss: the framework rebuilds, reports the clean model's bytes,
// and overwrites the snapshot with one that validates.
func TestNewFrameworkCachedRebuildsInvalidSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework builds in -short mode")
	}
	f := testFramework(t)
	pcs := f.Machine.Model.NumPCs()
	if err := f.table.Validate(pcs); err != nil {
		t.Fatalf("trained table does not validate: %v", err)
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
		{"an untrained adder row holding a mean", func(s *modelcache.Snapshot) {
			d := slices.IndexFunc(s.Datapath.Adder, func(c variation.Canon) bool { return len(c.Sens) == 0 })
			if d < 0 {
				t.Fatal("the adder table has no untrained row")
			}
			s.Datapath.Adder[d].Mean = -0.5
		}},
		{"adder means NaN", func(s *modelcache.Snapshot) {
			for d := range s.Datapath.Adder {
				s.Datapath.Adder[d].Mean = math.NaN()
			}
		}},
		{"a sensitivity of 1e200", func(s *modelcache.Snapshot) {
			row := &s.Datapath.Adder[len(s.Datapath.Adder)-1]
			row.Sens = slices.Clone(row.Sens)
			row.Sens[0] = 1e200
		}},
		{"a scale NaN", func(s *modelcache.Snapshot) { s.Scales[f.Machine.AdderEngine.N.Name] = math.NaN() }},
	} {
		dir := t.TempDir()
		table := *f.table
		table.Adder = slices.Clone(table.Adder)
		snap := &modelcache.Snapshot{Scales: maps.Clone(f.Machine.Scales()), Datapath: &table}
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
