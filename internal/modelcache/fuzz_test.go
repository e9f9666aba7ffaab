package modelcache

import (
	"context"
	"os"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/errormodel"
)

// FuzzLoadSnapshot feeds arbitrary bytes to Load under a real key. Load
// must never panic, and a snapshot it accepts must either fail
// DatapathModel.Validate, as the framework's load path then treats it as a
// miss, or build a FailTable whose every entry is a probability. The corpus
// is seeded from a real trained snapshot and cuts of it.
func FuzzLoadSnapshot(f *testing.F) {
	opts := errormodel.DefaultOptions()
	m, err := errormodel.NewMachine(opts)
	if err != nil {
		f.Fatal(err)
	}
	dp, err := m.TrainDatapath(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	key := Key(opts, cell.Fingerprint())
	if err := Save(dir, key, &Snapshot{Scales: m.Scales(), Datapath: dp}); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(Path(dir, key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(real[:len(real)-8])
	pcs := m.Model.NumPCs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(Path(dir, key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, ok := Load(dir, key)
		if !ok || snap.Datapath.Validate(pcs) != nil {
			return
		}
		for op, row := range snap.Datapath.FailTable().Rows {
			if row == nil {
				continue
			}
			for d, p := range row {
				if !(p >= 0 && p <= 1) {
					t.Fatalf("op %d depth %d: failure probability %v", op, d, p)
				}
			}
		}
	})
}
