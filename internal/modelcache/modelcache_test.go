package modelcache

import (
	"bytes"
	"crypto/sha256"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/errormodel"
	"tsperr/internal/variation"
)

// testSnapshot builds a small synthetic snapshot; the cache layer does not
// care whether the tables came from real training.
func testSnapshot() *Snapshot {
	return &Snapshot{
		Scales: map[string]float64{"adder": 1.25, "ctrl": 1.1},
		Datapath: &errormodel.DatapathModel{
			AdderSlack: []variation.Canon{{Mean: 12.5, Sens: []float64{0.5, -0.25}, Rand: 1.5}},
			AdderFail:  []float64{0, 0.125},
			ShiftFail:  []float64{0, 1e-6},
			MulFail:    []float64{0, 1e-9},
			LogicFail:  1e-12,
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), cell.Fingerprint())
	want := testSnapshot()
	if err := Save(dir, key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := Load(dir, key)
	if !ok {
		t.Fatal("round-trip load missed")
	}
	if got.Schema != SchemaVersion || got.Key != key {
		t.Errorf("metadata = %d/%q", got.Schema, got.Key)
	}
	if !reflect.DeepEqual(got.Scales, want.Scales) {
		t.Errorf("scales = %v, want %v", got.Scales, want.Scales)
	}
	if !reflect.DeepEqual(got.Datapath, want.Datapath) {
		t.Errorf("datapath tables changed across the round trip")
	}
}

func TestKeyChangesWithOptionsAndLibrary(t *testing.T) {
	base := errormodel.DefaultOptions()
	k0 := Key(base, cell.Fingerprint())
	changed := base
	changed.WorkingRatio += 0.01
	if Key(changed, cell.Fingerprint()) == k0 {
		t.Error("changing an option must change the key")
	}
	if Key(base, cell.Fingerprint()+"x") == k0 {
		t.Error("changing the library fingerprint must change the key")
	}
	if Key(base, cell.Fingerprint()) != k0 {
		t.Error("key must be deterministic")
	}
}

func TestLoadMissOnDifferentKey(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib-a")
	if err := Save(dir, key, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	other := Key(errormodel.DefaultOptions(), "lib-b")
	if _, ok := Load(dir, other); ok {
		t.Fatal("load under a different key must miss")
	}
	// The original entry is untouched by the unrelated miss.
	if _, ok := Load(dir, key); !ok {
		t.Fatal("original entry should survive")
	}
}

func TestLoadRemovesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib")
	if err := os.WriteFile(Path(dir, key), []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := Load(dir, key); ok {
		t.Fatal("corrupt file must miss")
	}
	if _, err := os.Stat(Path(dir, key)); !os.IsNotExist(err) {
		t.Error("corrupt file should have been removed")
	}
	// A rebuild can now publish cleanly over the removed entry.
	if err := Save(dir, key, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	if _, ok := Load(dir, key); !ok {
		t.Fatal("rebuilt entry should load")
	}
}

// The cross-process race the same-inode guard exists for: a reader opens a
// corrupt snapshot, and before it gets to the cleanup remove, a concurrent
// writer publishes a fresh valid snapshot over the same path. The cleanup
// must spare the new file — it is not the one the reader found corrupt.
func TestCorruptCleanupSparesFreshlyPublishedSnapshot(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib")
	p := Path(dir, key)
	if err := os.WriteFile(p, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The reader's view: the corrupt file, held open across the race window.
	f, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The concurrent writer wins the race and publishes a valid snapshot.
	if err := Save(dir, key, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	// The reader's deferred cleanup must notice p no longer names its file.
	removeIfSameFile(f, p)
	if _, ok := Load(dir, key); !ok {
		t.Fatal("freshly published snapshot was deleted by a stale reader's cleanup")
	}

	// Control: with no intervening publish, the cleanup does remove the file.
	if err := os.WriteFile(p, []byte("corrupt again"), 0o644); err != nil {
		t.Fatal(err)
	}
	f2, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	removeIfSameFile(f2, p)
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Error("unreplaced corrupt file should have been removed")
	}
}

func TestLoadRejectsKeyMismatchInsideFile(t *testing.T) {
	dir := t.TempDir()
	keyA := Key(errormodel.DefaultOptions(), "lib-a")
	keyB := Key(errormodel.DefaultOptions(), "lib-b")
	if err := Save(dir, keyA, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	// Simulate a mis-filed snapshot: bytes of key A under key B's name.
	data, err := os.ReadFile(Path(dir, keyA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(Path(dir, keyB), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := Load(dir, keyB); ok {
		t.Fatal("embedded key mismatch must miss")
	}
	if _, err := os.Stat(Path(dir, keyB)); !os.IsNotExist(err) {
		t.Error("mismatching file should have been removed")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib")
	want := testSnapshot()
	if err := Save(dir, key, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if i%2 == 0 {
					if err := Save(dir, key, testSnapshot()); err != nil {
						t.Errorf("save: %v", err)
						return
					}
				} else if got, ok := Load(dir, key); ok {
					// Atomic publishes mean a reader sees a complete
					// snapshot or nothing — never torn bytes.
					if !reflect.DeepEqual(got.Scales, want.Scales) {
						t.Errorf("torn read: %v", got.Scales)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestSaveRejectsIncompleteSnapshot(t *testing.T) {
	dir := t.TempDir()
	for _, snap := range []*Snapshot{
		nil,
		{Datapath: testSnapshot().Datapath},
		{Scales: map[string]float64{"adder": 1}},
	} {
		if err := Save(dir, "k", snap); err == nil {
			t.Errorf("incomplete snapshot %+v must be rejected", snap)
		}
	}
}

func TestDefaultDir(t *testing.T) {
	d, err := DefaultDir()
	if err != nil {
		t.Skipf("no user cache dir in this environment: %v", err)
	}
	if !strings.HasSuffix(d, "tsperr") {
		t.Errorf("default dir %q should end in tsperr", d)
	}
}

// TestSaveIsDeterministic saves one design 20 times: each save writes the
// same bytes, so the file is a function of its content address.
func TestSaveIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib")
	snap := testSnapshot()
	snap.Scales = map[string]float64{"adder": 1.25, "ctrl": 1.1, "logic": 0.9, "mult": 1.3, "shifter": 1.05}
	var first []byte
	for i := 0; i < 20; i++ {
		if err := Save(dir, key, snap); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(Path(dir, key))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("save %d of one design wrote different bytes", i+1)
		}
	}
}

// seal returns a snapshot file holding payload: its checksum header, then
// the payload.
func seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(sum[:], payload...)
}

// TestLoadRejectsDamagedFiles pins the checks before decoding: a flipped
// payload byte, a truncated file and an oversized file (valid checksum and
// snapshot, padded past the cap) are misses, and each file is removed. The
// undamaged file still loads.
func TestLoadRejectsDamagedFiles(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib")
	if err := Save(dir, key, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(Path(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	padded := append(append([]byte(nil), good[sha256.Size:]...), make([]byte, maxFileBytes)...)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"a flipped payload byte", flipped},
		{"a truncated file", good[:len(good)-8]},
		{"an oversized file", seal(padded)},
	} {
		if err := os.WriteFile(Path(dir, key), tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := Load(dir, key); ok {
			t.Errorf("%s loaded", tc.name)
		}
		if _, err := os.Stat(Path(dir, key)); !os.IsNotExist(err) {
			t.Errorf("%s was not removed", tc.name)
		}
	}
	if err := os.WriteFile(Path(dir, key), good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := Load(dir, key); !ok {
		t.Error("the undamaged snapshot no longer loads")
	}
}

// inflateCount rewrites a snapshot payload whose last gob message holds a
// one-entry scale table keyed by key, so that the table claims count bytes.
// Gob writes each message as its length and then its bytes, and the table as
// its byte count and then its bytes: the unit name's length, the name and
// the scale's 8 bytes.
func inflateCount(t *testing.T, stream []byte, key string, count uint64) []byte {
	t.Helper()
	// A gob uint below 128 is one byte; a larger one is its byte count,
	// negated, and then its big-endian bytes.
	encUint := func(x uint64) []byte {
		if x < 128 {
			return []byte{byte(x)}
		}
		var be []byte
		for ; x > 0; x >>= 8 {
			be = append([]byte{byte(x)}, be...)
		}
		return append([]byte{byte(-len(be))}, be...)
	}
	decUint := func(b []byte) (x uint64, n int) {
		if b[0] < 128 {
			return uint64(b[0]), 1
		}
		n = int(-int8(b[0]))
		for _, c := range b[1 : 1+n] {
			x = x<<8 | uint64(c)
		}
		return x, 1 + n
	}
	var last int // offset of the last message
	for off := 0; off < len(stream); {
		last = off
		l, n := decUint(stream[off:])
		off += n + int(l)
	}
	l, n := decUint(stream[last:])
	msg := stream[last+n:]
	table := append([]byte{byte(1 + len(key) + 8), byte(len(key))}, key...)
	i := bytes.Index(msg, table)
	if i < 0 {
		t.Fatal("scale table not found in the stream")
	}
	body := append(append(append([]byte{}, msg[:i]...), encUint(count)...), msg[i+1:]...)
	out := append(append([]byte{}, stream[:last]...), encUint(l+uint64(len(body)-len(msg)))...)
	return append(out, body...)
}

// TestLoadBoundsAClaimedMapCount loads a snapshot whose scale table claims
// 2^22 bytes and holds 17. Load must miss without sizing anything for the
// claim: decoding the scales into a nil map made gob allocate ~100 MB for
// it, and a slice of scales ~10 MB. The file carries its payload's checksum,
// so the claim reaches the decoder.
func TestLoadBoundsAClaimedMapCount(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib")
	snap := testSnapshot()
	snap.Scales = map[string]float64{"inflated": 1.25}
	if err := Save(dir, key, snap); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(Path(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(Path(dir, key), seal(inflateCount(t, raw[sha256.Size:], "inflated", 1<<22)), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := Load(dir, key)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("a snapshot whose scale table holds less than it claims must miss")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Errorf("Load allocated %d MB for the claimed entries", alloc>>20)
	}
}

// TestScaleTableRejectsWhatSaveNeverWrites: a scale table cut inside an
// entry, claiming a name past its end, or whose units repeat or fall out of
// order does not decode.
func TestScaleTableRejectsWhatSaveNeverWrites(t *testing.T) {
	entry := func(unit string) []byte {
		b, _ := scaleTable{unit: 1}.MarshalBinary()
		return b
	}
	good, _ := scaleTable{"adder": 1.25, "ctrl": 1.1}.MarshalBinary()
	for name, b := range map[string][]byte{
		"a table cut inside an entry": good[:len(good)-1],
		"a name claimed past the end": {0xff, 0xff, 0x03, 'a'},
		"a repeated unit":             append(entry("adder"), entry("adder")...),
		"units out of order":          append(entry("ctrl"), entry("adder")...),
	} {
		var got scaleTable
		if got.UnmarshalBinary(b) == nil {
			t.Errorf("%s decoded to %v", name, got)
		}
	}
	var got scaleTable
	if err := got.UnmarshalBinary(good); err != nil || !reflect.DeepEqual(got, scaleTable{"adder": 1.25, "ctrl": 1.1}) {
		t.Errorf("the table Save writes decoded to %v, %v", got, err)
	}
}
