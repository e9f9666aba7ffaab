package modelcache

import (
	"math"
	"os"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/errormodel"
	"tsperr/internal/mlpred"
)

func trainedForest(t *testing.T) *mlpred.RegForest {
	t.Helper()
	var samples []mlpred.RegSample
	for i := 0; i < 40; i++ {
		x := float64(i % 10)
		y := 0.0
		if x > 4 {
			y = 2
		}
		samples = append(samples, mlpred.RegSample{Features: []float64{x, float64(i)}, Target: y})
	}
	f, err := mlpred.TrainRegForest(samples, 4, mlpred.Config{MaxDepth: 4, MinLeaf: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSurrogateSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const fp = "aabbccdd"
	snap := &SurrogateSnapshot{
		Version: 3,
		Forest:  trainedForest(t),
		Samples: []SurrogateSample{{Features: []float64{1, 2}, Log10Rate: -2.5}},
	}
	if err := SaveSurrogate(dir, fp, snap); err != nil {
		t.Fatal(err)
	}
	back, ok := LoadSurrogate(dir, fp)
	if !ok {
		t.Fatal("round trip missed")
	}
	if back.Version != 3 || back.Fingerprint != fp || back.Schema != SurrogateSchemaVersion {
		t.Errorf("metadata mangled: %+v", back)
	}
	if len(back.Samples) != 1 || back.Samples[0].Log10Rate != -2.5 {
		t.Errorf("samples mangled: %+v", back.Samples)
	}
	m0, s0 := snap.Forest.Predict([]float64{7, 3})
	m1, s1 := back.Forest.Predict([]float64{7, 3})
	// Persistence is a bit-identity contract, so compare the raw bits.
	if math.Float64bits(m0) != math.Float64bits(m1) ||
		math.Float64bits(s0) != math.Float64bits(s1) {
		t.Error("forest prediction changed across the round trip")
	}
}

// TestSurrogateStaleFingerprintNeverLoaded is the acceptance check: a
// snapshot whose embedded fingerprint disagrees with the requested one — a
// stale file injected under the expected name, e.g. copied from another
// machine's cache — is rejected and deleted, never served.
func TestSurrogateStaleFingerprintNeverLoaded(t *testing.T) {
	dir := t.TempDir()
	const theirs, ours = "fingerprint-theirs", "fingerprint-ours"
	stale := &SurrogateSnapshot{Forest: trainedForest(t)}
	if err := SaveSurrogate(dir, theirs, stale); err != nil {
		t.Fatal(err)
	}
	// Inject: move the other machine's snapshot under OUR expected name.
	if err := os.Rename(SurrogatePath(dir, theirs), SurrogatePath(dir, ours)); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadSurrogate(dir, ours); ok {
		t.Fatal("stale snapshot with mismatched fingerprint was loaded")
	}
	if _, err := os.Stat(SurrogatePath(dir, ours)); !os.IsNotExist(err) {
		t.Error("stale snapshot was not deleted after rejection")
	}
}

// TestSurrogateConditionScopedFingerprint pins V/T isolation at the
// persistence layer: the snapshot key is the model fingerprint, and the
// fingerprint covers the operating condition, so a tier trained at one
// condition can never be resurrected to answer for another — a daemon
// restarted at a droop corner simply misses and starts untrained.
func TestSurrogateConditionScopedFingerprint(t *testing.T) {
	dir := t.TempDir()
	nominal := errormodel.DefaultOptions()
	droop := nominal
	droop.Cond = cell.OperatingCondition{VoltageV: 0.95, TempC: 85}
	const lib = "cell-lib-fp"
	kNominal, kDroop := Key(nominal, lib), Key(droop, lib)
	if kNominal == kDroop {
		t.Fatal("model fingerprint ignores the operating condition")
	}
	// Zero condition and explicit nominal normalize to the same machine —
	// their keys must not split the cache.
	explicit := nominal
	explicit.Cond = cell.OperatingCondition{VoltageV: cell.NominalVoltageV, TempC: cell.NominalTempC}.Norm()
	if Key(explicit, lib) != kNominal {
		t.Error("explicit nominal condition split the fingerprint from the zero value")
	}

	snap := &SurrogateSnapshot{Version: 1, Forest: trainedForest(t)}
	if err := SaveSurrogate(dir, kNominal, snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadSurrogate(dir, kDroop); ok {
		t.Fatal("surrogate trained at nominal answered for the droop corner")
	}
	if _, ok := LoadSurrogate(dir, kNominal); !ok {
		t.Error("nominal snapshot lost on a same-condition reload")
	}
}

func TestSurrogateLoadRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	const fp = "fp"
	snap := &SurrogateSnapshot{Forest: trainedForest(t)}
	if err := SaveSurrogate(dir, fp, snap); err != nil {
		t.Fatal(err)
	}
	// Rewrite the file with a bumped schema but matching fingerprint.
	snap.Schema = SurrogateSchemaVersion + 1
	if err := writeAtomic(dir, "surrogate-*.tmp", SurrogatePath(dir, fp), snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadSurrogate(dir, fp); ok {
		t.Fatal("future-schema snapshot was loaded")
	}
}

func TestSurrogateLoadRejectsCorruptForest(t *testing.T) {
	dir := t.TempDir()
	const fp = "fp"
	forest := trainedForest(t)
	// Break a child index before saving; Validate must catch it at load.
	broke := false
	for _, tree := range forest.Trees {
		for i := range tree.Nodes {
			if !tree.Nodes[i].Leaf {
				tree.Nodes[i].Hi = int32(len(tree.Nodes) + 99)
				broke = true
				break
			}
		}
		if broke {
			break
		}
	}
	if !broke {
		t.Skip("no interior node to corrupt")
	}
	if err := SaveSurrogate(dir, fp, &SurrogateSnapshot{Forest: forest}); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadSurrogate(dir, fp); ok {
		t.Fatal("structurally invalid forest was loaded")
	}
}

func TestSurrogateSaveValidation(t *testing.T) {
	dir := t.TempDir()
	if err := SaveSurrogate(dir, "fp", &SurrogateSnapshot{}); err == nil {
		t.Error("empty snapshot saved")
	}
	if err := SaveSurrogate(dir, "", &SurrogateSnapshot{Forest: trainedForest(t)}); err == nil {
		t.Error("snapshot without fingerprint saved")
	}
	// Buffer-only snapshots (observations collected, threshold not reached)
	// are valid: learning state survives a restart even before first train.
	bufOnly := &SurrogateSnapshot{Samples: []SurrogateSample{{Features: []float64{1}, Log10Rate: -2}}}
	if err := SaveSurrogate(dir, "fp2", bufOnly); err != nil {
		t.Fatalf("buffer-only snapshot rejected: %v", err)
	}
	if back, ok := LoadSurrogate(dir, "fp2"); !ok || back.Forest != nil || len(back.Samples) != 1 {
		t.Errorf("buffer-only round trip: ok=%v snap=%+v", ok, back)
	}
}
