// Package modelcache persists the once-per-design training results — the
// calibrated per-unit delay scales and the trained datapath timing model —
// in a content-addressed on-disk cache, so repeated tool invocations at the
// same operating point skip SSTA calibration and datapath training entirely.
//
// The cache is content-addressed: the key is a hash of the schema version,
// the full errormodel.Options, and the cell-library fingerprint. Anything
// that could change the trained model changes the key, so stale entries are
// never served; they are simply orphaned (and a mismatching or corrupt file
// under the expected name is deleted and reported as a miss). Netlists are
// not serialized — they regenerate deterministically from the generators —
// which keeps snapshots small and sidesteps the unexported graph internals.
//
// Writes are atomic (temp file + rename in the same directory), so a crashed
// or concurrent writer can never leave a half-written snapshot visible to
// readers, and concurrent writers of the same key simply race to publish
// identical bytes.
package modelcache

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"tsperr/internal/errormodel"
)

// SchemaVersion invalidates every cached snapshot when the serialized layout
// or the meaning of the trained tables changes. Bump it on any change to
// Snapshot, DatapathModel, or the training flow itself.
const SchemaVersion = 1

// Snapshot is the serializable result of the machine-dependent training
// phase: everything NewFrameworkCached needs to rebuild a Framework without
// calibrating or training.
type Snapshot struct {
	// Schema and Key echo the cache metadata for self-validation on load.
	Schema int
	Key    string
	// Scales are the calibrated per-unit delay scales by netlist name
	// (errormodel.Machine.Scales), the input of NewMachineWithScales.
	Scales map[string]float64
	// Datapath is the trained per-depth DTS table set.
	Datapath *errormodel.DatapathModel
}

// Key derives the content address of a model snapshot from the operating
// point options and the cell-library fingerprint. %+v over Options is stable
// for a fixed struct definition, and any field addition changes the rendered
// string (and therefore the key), which is exactly the invalidation we want.
func Key(opts errormodel.Options, libFingerprint string) string {
	// The zero condition means "nominal": normalize before hashing so a
	// machine characterized with an explicit 1.1 V / 25 C shares its snapshot
	// with the default, while any real droop or heat gets its own key.
	opts.Cond = opts.Cond.Norm()
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d\nopts=%+v\nlib=%s\n", SchemaVersion, opts, libFingerprint)
	return hex.EncodeToString(h.Sum(nil))
}

// Path returns the snapshot file for a key inside dir.
func Path(dir, key string) string {
	return filepath.Join(dir, "model-"+key+".gob")
}

// DefaultDir returns the per-user cache directory for model snapshots.
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("modelcache: no user cache dir: %w", err)
	}
	return filepath.Join(base, "tsperr"), nil
}

// Dir is the -model-cache/-model-cache-dir rule: an enabled cache without a
// dir uses DefaultDir; "" (build uncached) when off or no dir is usable.
func Dir(enabled bool, dir string) string {
	if !enabled {
		return ""
	}
	if dir == "" {
		dir, _ = DefaultDir() // "" when there is no user cache dir
	}
	return dir
}

// Save atomically writes a snapshot under its key, creating dir as needed.
// The snapshot's Schema and Key fields are stamped here.
func Save(dir, key string, snap *Snapshot) error {
	if snap == nil || snap.Scales == nil || snap.Datapath == nil {
		return fmt.Errorf("modelcache: incomplete snapshot")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("modelcache: %w", err)
	}
	snap.Schema = SchemaVersion
	snap.Key = key
	tmp, err := os.CreateTemp(dir, "model-*.tmp")
	if err != nil {
		return fmt.Errorf("modelcache: %w", err)
	}
	if err := gob.NewEncoder(tmp).Encode(snap); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("modelcache: encoding snapshot: %w", err)
	}
	// Flush to stable storage before publishing: without it a crash between
	// the rename and the kernel writeback could expose an empty or truncated
	// file under the final name, which every later process would then treat
	// as corruption.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("modelcache: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("modelcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), Path(dir, key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("modelcache: publishing snapshot: %w", err)
	}
	return nil
}

// Load returns the snapshot stored under key, or ok == false on any miss:
// absent file, undecodable bytes, or metadata that does not match the
// requested key or schema. Invalid files are removed so the next Save
// replaces them; a miss is never an error, the caller just rebuilds.
func Load(dir, key string) (snap *Snapshot, ok bool) {
	p := Path(dir, key)
	f, err := os.Open(p)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	// Decode into a non-nil map: gob sizes a nil destination map by the
	// entry count the stream claims, so a corrupt count would allocate
	// without bound before the entries ran out.
	s := Snapshot{Scales: map[string]float64{}}
	if err := gob.NewDecoder(f).Decode(&s); err != nil {
		removeIfSameFile(f, p)
		return nil, false
	}
	if s.Schema != SchemaVersion || s.Key != key || len(s.Scales) == 0 || s.Datapath == nil {
		removeIfSameFile(f, p)
		return nil, false
	}
	return &s, true
}

// removeIfSameFile deletes the invalid snapshot at p, but only while p still
// names the very file this reader decoded. Multiple processes share the
// cache directory: between our Open and the decode failure, a concurrent
// Save may have renamed a fresh, valid snapshot over p, and an unconditional
// remove would delete that new file — the one failure mode the atomic
// temp+rename publish cannot defend against.
func removeIfSameFile(f *os.File, p string) {
	opened, err := f.Stat()
	if err != nil {
		return
	}
	current, err := os.Stat(p)
	if err != nil {
		return // already gone or unreadable; nothing to clean up
	}
	if os.SameFile(opened, current) {
		os.Remove(p)
	}
}
