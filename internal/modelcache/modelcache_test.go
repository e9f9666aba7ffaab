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

// testSnapshot builds a small synthetic snapshot with a datapath table of
// the shape training writes, an adder row and the logic row of it trained;
// the cache layer does not care whether the values came from real training.
func testSnapshot() *Snapshot {
	return &Snapshot{
		Scales:   map[string]float64{"adder": 1.25, "ctrl": 1.1},
		Datapath: testTable(),
	}
}

func testTable() *errormodel.DatapathTable {
	t := &errormodel.DatapathTable{
		Adder: make([]variation.Canon, 33),
		Shift: make([]variation.Canon, 6),
		Mul:   make([]variation.Canon, 17),
		Logic: variation.Canon{Mean: -3, Sens: []float64{0.25, 0.125}, Rand: 0.5},
	}
	t.Adder[1] = variation.Canon{Mean: -12.5, Sens: []float64{0.5, -0.25}, Rand: 1.5}
	return t
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
	short := testTable()
	short.Mul = short.Mul[:16]
	for _, snap := range []*Snapshot{
		nil,
		{Datapath: testSnapshot().Datapath},
		{Scales: map[string]float64{"adder": 1}},
		{Scales: map[string]float64{"adder": 1}, Datapath: short},
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

// inflateClaim rewrites a snapshot payload whose last gob message holds the
// byte string table, so that the string claims claim bytes. Gob writes each
// message as its length and then its bytes, and a byte string as its byte
// count and then its bytes.
func inflateClaim(t *testing.T, stream, table []byte, claim uint64) []byte {
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
	prefix := encUint(uint64(len(table)))
	i := bytes.Index(msg, append(append([]byte{}, prefix...), table...))
	if i < 0 {
		t.Fatal("table not found in the stream")
	}
	body := append(append(append([]byte{}, msg[:i]...), encUint(claim)...), msg[i+len(prefix):]...)
	out := append(append([]byte{}, stream[:last]...), encUint(l+uint64(len(body)-len(msg)))...)
	return append(out, body...)
}

// loadInflated saves snap, rewrites its file so that the byte string table
// claims 2^22 of its units of size bytes, and loads it: the load must miss
// and allocate under 8 MB, since the claim reaches the decoder (the file
// carries its payload's checksum) but the bytes are not there.
func loadInflated(t *testing.T, snap *Snapshot, table []byte, size uint64) {
	t.Helper()
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib")
	if err := Save(dir, key, snap); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(Path(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(Path(dir, key), seal(inflateClaim(t, raw[sha256.Size:], table, size<<22)), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := Load(dir, key)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("a snapshot whose table holds less than it claims must miss")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Errorf("Load allocated %d MB for the claimed entries", alloc>>20)
	}
}

// TestLoadBoundsAClaimedMapCount loads a snapshot whose scale table claims
// 2^22 bytes and holds 17. Load must miss without sizing anything for the
// claim: decoding the scales into a nil map made gob allocate ~100 MB for
// it, and a slice of scales ~10 MB.
func TestLoadBoundsAClaimedMapCount(t *testing.T) {
	snap := testSnapshot()
	snap.Scales = map[string]float64{"inflated": 1.25}
	table, err := scaleTable(snap.Scales).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loadInflated(t, snap, table, 1)
}

// TestLoadBoundsAClaimedDatapathTable loads a snapshot whose datapath
// table claims 2^22 float64s. As gob slices, one []float64 that claimed
// 2^22 entries and held one allocated 10 MB.
func TestLoadBoundsAClaimedDatapathTable(t *testing.T) {
	snap := testSnapshot()
	table, err := datapathTable{snap.Datapath}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loadInflated(t, snap, table, 8)
}

// TestDatapathTableRejectsWhatSaveNeverWrites: a datapath table cut short,
// padded past the logic row, with a flag other than 0 or 1, with a trained
// row but no sensitivity count, with a count no row carries, or with a
// count past the bytes there, does not decode. What Save writes decodes to
// the table it came from.
func TestDatapathTableRejectsWhatSaveNeverWrites(t *testing.T) {
	table := testTable()
	good, err := datapathTable{table}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	untrained, err := datapathTable{&errormodel.DatapathTable{
		Adder: make([]variation.Canon, 33),
		Shift: make([]variation.Canon, 6),
		Mul:   make([]variation.Canon, 17),
	}}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if good[0] != 2 || untrained[0] != 0 {
		t.Fatalf("sensitivity counts %d and %d, want 2 and 0", good[0], untrained[0])
	}
	// good[1] is the adder's row 0 flag, untrained; its row 1 is trained.
	with := func(i int, v byte, b []byte) []byte {
		b = bytes.Clone(b)
		b[i] = v
		return b
	}
	for name, b := range map[string][]byte{
		"a table cut inside the logic row": good[:len(good)-1],
		"a table cut at a row":             good[:1+1+2*8],
		"a byte past the logic row":        append(bytes.Clone(good), 0),
		"a flag of 2":                      with(1, 2, good),
		"a trained row without a count":    with(1, 1, untrained),
		"a count no row carries":           with(0, 2, untrained),
		"a count past the bytes there":     append([]byte{0x80, 0x80, 0x80, 0x02}, good[1:]...),
		"an empty string":                  {},
	} {
		var got datapathTable
		if got.UnmarshalBinary(b) == nil {
			t.Errorf("%s decoded", name)
		}
	}
	var got datapathTable
	if err := got.UnmarshalBinary(good); err != nil || !reflect.DeepEqual(got.t, table) {
		t.Errorf("the table Save writes decoded to %+v, %v", got.t, err)
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
