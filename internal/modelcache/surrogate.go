package modelcache

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"

	"tsperr/internal/mlpred"
)

// Surrogate snapshots persist the fast tier's trained regression forest and
// its training buffer alongside the model snapshots, with the same
// guarantees: atomic publish, self-validating metadata, and
// delete-on-mismatch. The file is keyed on the model fingerprint (options +
// cell library) because the surrogate's training labels are exact-pipeline
// outputs of that machine — a surrogate must never answer for a different
// characterized machine, so a fingerprint mismatch inside the file is a miss
// even when the file name matches.

// SurrogateSchemaVersion invalidates every cached surrogate snapshot when
// the serialized layout, the feature vector, or the label definition
// changes. Version 2: the feature vector grew the operating condition
// (voltage, temperature), so condition-blind version-1 snapshots must not
// answer. Version 3: the checksum header.
const SurrogateSchemaVersion = 3

// SurrogateSample is one persisted training observation: the feature vector
// and the exact tier's log10 error rate.
type SurrogateSample struct {
	Features  []float64
	Log10Rate float64
}

// SurrogateSnapshot is the serializable state of the surrogate fast tier:
// the trained forest plus the training buffer that produced it, so a
// restarted daemon resumes both serving and learning where it left off.
type SurrogateSnapshot struct {
	// Schema and Fingerprint echo the cache metadata for self-validation on
	// load; Fingerprint is the model content address the labels came from.
	Schema      int
	Fingerprint string
	// Version is the tier's model-swap counter at save time.
	Version int
	// Forest is the trained regression model (nil means "buffer only": the
	// tier had observations but had not reached its training threshold).
	Forest *mlpred.RegForest
	// Samples is the bounded training buffer contents, oldest first.
	Samples []SurrogateSample
}

// SurrogatePath returns the surrogate snapshot file for a model fingerprint
// inside dir. The fingerprint is a hex content address, so it is directly
// filename-safe.
func SurrogatePath(dir, fingerprint string) string {
	return filepath.Join(dir, "surrogate-"+fingerprint+".gob")
}

// SaveSurrogate atomically writes a surrogate snapshot under its model
// fingerprint, creating dir as needed. Schema and Fingerprint are stamped
// here.
func SaveSurrogate(dir, fingerprint string, snap *SurrogateSnapshot) error {
	if snap == nil || (snap.Forest == nil && len(snap.Samples) == 0) {
		return fmt.Errorf("modelcache: empty surrogate snapshot")
	}
	if fingerprint == "" {
		return fmt.Errorf("modelcache: surrogate snapshot needs a model fingerprint")
	}
	snap.Schema = SurrogateSchemaVersion
	snap.Fingerprint = fingerprint
	return writeAtomic(dir, "surrogate-*.tmp", SurrogatePath(dir, fingerprint), snap)
}

// LoadSurrogate returns the surrogate snapshot stored for a model
// fingerprint, or ok == false on any miss: absent, oversized or undecodable
// file, a checksum mismatch, schema or fingerprint mismatch, or a
// structurally invalid forest. Invalid
// files are removed (with the same same-file guard as Load) so the next
// SaveSurrogate replaces them.
func LoadSurrogate(dir, fingerprint string) (snap *SurrogateSnapshot, ok bool) {
	var s SurrogateSnapshot
	ok = readValid(SurrogatePath(dir, fingerprint), func(payload []byte) bool {
		return gob.NewDecoder(bytes.NewReader(payload)).Decode(&s) == nil &&
			s.Schema == SurrogateSchemaVersion && s.Fingerprint == fingerprint &&
			(s.Forest == nil || s.Forest.Validate() == nil)
	})
	if !ok {
		return nil, false
	}
	return &s, true
}
