package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"testing"

	"tsperr/internal/montecarlo"
)

// FuzzChunkResponse feeds arbitrary peer bytes through the coordinator's
// decode of a chunk response and through Assemble. Neither may panic, and a
// chunk that both accept carries only non-negative integer counts. The
// corpus is seeded from a real chunk response and corruptions of it.
func FuzzChunkResponse(f *testing.F) {
	const trials = 16
	res, err := montecarlo.RunChunk(context.Background(), testSpec(f, 1, trials, 9), trials, 0)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(bytes.Replace(raw, []byte(`"counts":[`), []byte(`"counts":[-1,`), 1))
	f.Add(bytes.Replace(raw, []byte(`"counts":[`), []byte(`"counts":[0.5,`), 1))
	f.Add([]byte(`{"index":0,"counts":[1e400],"instructions":1}`))
	f.Add([]byte(`{"index":0,"counts":null,"instructions":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := decodeChunk(io.NopCloser(bytes.NewReader(data)), 0)
		if err != nil {
			return
		}
		sr, err := montecarlo.Assemble(trials, trials, []montecarlo.ChunkResult{ch})
		if err != nil {
			return
		}
		for i, v := range sr.Counts {
			if _, frac := math.Modf(v); frac != 0 || math.Signbit(v) {
				t.Fatalf("accepted count %d is %v", i, v)
			}
		}
		if sr.Instructions < 0 {
			t.Fatalf("accepted instruction count %d", sr.Instructions)
		}
	})
}
