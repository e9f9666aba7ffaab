package modelcache

import (
	"bytes"
	"encoding/gob"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/dta"
	"tsperr/internal/errormodel"
	"tsperr/internal/variation"
)

// FuzzLoadSnapshot feeds arbitrary payloads to decodeSnapshot, the step of
// Load after the size cap and the checksum, under a real key: random bytes
// in front of a checksum would almost never reach gob. decodeSnapshot must
// never panic, and a snapshot it accepts must either fail
// DatapathModel.Validate, as the framework's load path then treats it as a
// miss, or build a FailTable whose every entry is a probability. The corpus
// is seeded from a small valid payload in the format Save writes (the scales
// and the datapath tables as byte strings), one trained row and the rest
// untrained, and cuts of it.
func FuzzLoadSnapshot(f *testing.F) {
	opts := errormodel.DefaultOptions()
	model, err := variation.NewModel(opts.VariationLevels, opts.CorrShare)
	if err != nil {
		f.Fatal(err)
	}
	pcs := model.NumPCs()
	row := variation.Canon{Mean: 12.5, Sens: make([]float64, pcs), Rand: 1.5}
	row.Sens[0] = -40
	dp := &errormodel.DatapathModel{
		AdderSlack: make([]variation.Canon, 33),
		AdderFail:  make([]float64, 33),
		ShiftSlack: make([]variation.Canon, 6),
		ShiftFail:  make([]float64, 6),
		MulSlack:   make([]variation.Canon, 17),
		MulFail:    make([]float64, 17),
		LogicFail:  1e-9,
	}
	dp.AdderSlack[1], dp.AdderFail[1] = row, dta.ErrorProbability(row)
	if err := dp.Validate(pcs); err != nil {
		f.Fatal(err)
	}
	key := Key(opts, cell.Fingerprint())
	var seed bytes.Buffer
	if err := gob.NewEncoder(&seed).Encode(&snapshotFile{
		Schema:   SchemaVersion,
		Key:      key,
		Scales:   scaleTable{"adder": 1.25, "ctrl": 1.1},
		Datapath: datapathTable{dp},
	}); err != nil {
		f.Fatal(err)
	}
	payload := seed.Bytes()
	if _, ok := decodeSnapshot(payload, key); !ok {
		f.Fatal("the seed payload does not decode")
	}
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add(payload[:len(payload)-8])
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, ok := decodeSnapshot(data, key)
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
