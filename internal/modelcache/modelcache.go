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
// A snapshot file is a header holding the SHA-256 of its payload, then the
// gob payload. The bytes are a function of the snapshot, so one design
// always writes the same file. A reader checks the file's size cap and its
// checksum before decoding anything.
//
// Writes are atomic (temp file + rename in the same directory), so a crashed
// or concurrent writer can never leave a half-written snapshot visible to
// readers, and concurrent writers of the same key simply race to publish
// identical bytes.
package modelcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"tsperr/internal/errormodel"
)

// SchemaVersion invalidates every cached snapshot when the serialized layout
// or the meaning of the trained tables changes. Bump it on any change to
// Snapshot, DatapathModel, or the training flow itself. Version 2: the
// checksum header, and the scales as one byte string sorted by unit name.
const SchemaVersion = 2

// maxFileBytes caps the bytes a reader takes from a snapshot file; a larger
// file is a miss, and Save refuses to write one. The largest snapshot the
// tests and smokes write is a model snapshot of 7.9 KB (the largest
// surrogate one: 4.9 KB). A surrogate snapshot with the default 4096-sample
// buffer full and the default 24-tree forest takes about 0.9 MB.
const maxFileBytes = 16 << 20

// Snapshot is the serializable result of the machine-dependent training
// phase: everything NewFrameworkCachedContext needs to rebuild a Framework
// without calibrating or training.
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

// snapshotFile is a Snapshot as its file's payload holds it.
type snapshotFile struct {
	Schema   int
	Key      string
	Scales   scaleTable
	Datapath *errormodel.DatapathModel
}

// scaleTable is Snapshot.Scales as a payload holds it: one byte string of
// entries sorted by unit name, each the name's uvarint length, the name and
// the scale's float64 bits. Gob would write a map in Go's random iteration
// order, and would size a slice by the count the stream claims (up to
// 10 MB) before finding the data short; a byte string's length is checked
// against the bytes the payload holds.
type scaleTable map[string]float64

func (t scaleTable) MarshalBinary() ([]byte, error) {
	units := make([]string, 0, len(t))
	for unit := range t {
		units = append(units, unit)
	}
	sort.Strings(units)
	var b []byte
	for _, unit := range units {
		b = binary.AppendUvarint(b, uint64(len(unit)))
		b = append(b, unit...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t[unit]))
	}
	return b, nil
}

// UnmarshalBinary accepts only what MarshalBinary writes: whole entries,
// their units in strictly increasing order.
func (t *scaleTable) UnmarshalBinary(b []byte) error {
	table, prev := scaleTable{}, ""
	for len(b) > 0 {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > uint64(len(b)-k) || len(b)-k-int(n) < 8 {
			return errors.New("modelcache: truncated scale table")
		}
		unit := string(b[k : k+int(n)])
		if len(table) > 0 && unit <= prev {
			return errors.New("modelcache: scale table out of order")
		}
		b = b[k+int(n):]
		table[unit] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		prev, b = unit, b[8:]
	}
	*t = table
	return nil
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
	snap.Schema = SchemaVersion
	snap.Key = key
	return writeAtomic(dir, "model-*.tmp", Path(dir, key), &snapshotFile{snap.Schema, key, snap.Scales, snap.Datapath})
}

// Load returns the snapshot stored under key, or ok == false on any miss:
// absent, oversized or undecodable file, a checksum mismatch, or metadata
// that does not match the requested key or schema. Invalid files are
// removed so the next Save replaces them; a miss is never an error, the
// caller just rebuilds.
func Load(dir, key string) (snap *Snapshot, ok bool) {
	ok = readValid(Path(dir, key), func(payload []byte) bool {
		snap, ok = decodeSnapshot(payload, key)
		return ok
	})
	return snap, ok
}

// decodeSnapshot is Load after the checksum: it decodes a file's payload and
// reports whether it is a valid snapshot for key.
func decodeSnapshot(payload []byte, key string) (*Snapshot, bool) {
	var file snapshotFile
	if gob.NewDecoder(bytes.NewReader(payload)).Decode(&file) != nil ||
		file.Schema != SchemaVersion || file.Key != key || len(file.Scales) == 0 || file.Datapath == nil {
		return nil, false
	}
	return &Snapshot{file.Schema, file.Key, file.Scales, file.Datapath}, true
}

// writeAtomic gob-encodes v and writes it behind its checksum header into a
// temp file in dir (created as needed), fsyncs, and renames it over path, so
// a crashed or concurrent writer never leaves a half-written snapshot
// visible under path.
func writeAtomic(dir, tmpPattern, path string, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("modelcache: encoding snapshot: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	if n := len(sum) + payload.Len(); n > maxFileBytes {
		return fmt.Errorf("modelcache: snapshot of %d bytes exceeds the %d-byte cap", n, maxFileBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("modelcache: %w", err)
	}
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("modelcache: %w", err)
	}
	if _, err := tmp.Write(append(sum[:], payload.Bytes()...)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("modelcache: writing snapshot: %w", err)
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
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("modelcache: publishing snapshot: %w", err)
	}
	return nil
}

// readValid reads the file at p and reports whether it is at most
// maxFileBytes long, its checksum header matches its payload, and decode
// accepts that payload. A file failing any check is removed, under the
// same-file guard; an absent one is just a miss.
func readValid(p string, decode func(payload []byte) bool) bool {
	f, err := os.Open(p)
	if err != nil {
		return false
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, maxFileBytes+1))
	ok := err == nil && len(data) >= sha256.Size && len(data) <= maxFileBytes
	if ok {
		sum := sha256.Sum256(data[sha256.Size:])
		ok = bytes.Equal(sum[:], data[:sha256.Size]) && decode(data[sha256.Size:])
	}
	if !ok {
		removeIfSameFile(f, p)
	}
	return ok
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
