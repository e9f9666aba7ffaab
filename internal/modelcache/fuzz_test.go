package modelcache

import (
	"bytes"
	"encoding/gob"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/errormodel"
	"tsperr/internal/variation"
)

// FuzzLoadSnapshot feeds arbitrary payloads to decodeSnapshot, the step of
// Load after the size cap and the checksum, under a real key: random bytes
// in front of a checksum would almost never reach gob. decodeSnapshot must
// never panic, and a snapshot it accepts must either fail
// DatapathTable.Validate, as the framework's load path then treats it as a
// miss, or give a FailTable whose every entry is a probability at the
// default options' analysis period and at a period 30% shorter. The corpus
// is seeded from a small valid payload in the format Save writes (the
// scales and the datapath table as byte strings), one adder row trained and
// the rest untrained, cuts of it, and the payload of a table whose trained
// row has a sensitivity whose square overflows.
func FuzzLoadSnapshot(f *testing.F) {
	opts := errormodel.DefaultOptions()
	model, err := variation.NewModel(opts.VariationLevels, opts.CorrShare)
	if err != nil {
		f.Fatal(err)
	}
	pcs := model.NumPCs()
	key := Key(opts, cell.Fingerprint())
	payload := func(sens0 float64) []byte {
		t := &errormodel.DatapathTable{
			Adder: make([]variation.Canon, 33),
			Shift: make([]variation.Canon, 6),
			Mul:   make([]variation.Canon, 17),
		}
		t.Adder[1] = variation.Canon{Mean: -1400, Sens: make([]float64, pcs), Rand: 1.5}
		t.Adder[1].Sens[0] = sens0
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(&snapshotFile{
			Schema:   SchemaVersion,
			Key:      key,
			Scales:   scaleTable{"adder": 1.25, "ctrl": 1.1},
			Datapath: datapathTable{t},
		}); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	seed := payload(-40)
	if snap, ok := decodeSnapshot(seed, key); !ok || snap.Datapath.Validate(pcs) != nil {
		f.Fatal("the seed payload does not decode to a valid table")
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-8])
	f.Add(payload(1e200))
	analysis := 1e6 / opts.BaseFreqMHz / opts.WorkingRatio
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, ok := decodeSnapshot(data, key)
		if !ok || snap.Datapath.Validate(pcs) != nil {
			return
		}
		for _, period := range []float64{analysis, 0.7 * analysis} {
			for op, row := range snap.Datapath.At(period).FailTable().Rows {
				if row == nil {
					continue
				}
				for d, p := range row {
					if !(p >= 0 && p <= 1) {
						t.Fatalf("at %v ps, op %d depth %d: failure probability %v", period, op, d, p)
					}
				}
			}
		}
	})
}
