package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"tsperr/internal/montecarlo"
)

// HTTP headers of the intra-cluster protocol.
const (
	// HeaderForwarded marks a request a coordinator routed to this node; the
	// receiver executes locally and never re-routes, so a misconfigured mesh
	// cannot forward a request in circles.
	HeaderForwarded = "X-Tsperrd-Forwarded"
	// HeaderFingerprint carries the sender's model fingerprint; the receiver
	// rejects a mismatch with 409 so results never mix across operating
	// points or cell-library revisions.
	HeaderFingerprint = "X-Tsperrd-Fingerprint"
	// HeaderChunk carries the Monte Carlo chunk index of a chunk request; the
	// fault-injection transport uses it to target faults at specific chunks.
	HeaderChunk = "X-Tsperrd-Chunk"
)

// ChunkRequest is the body of POST /v1/cluster/chunk: one Monte Carlo chunk
// of a named benchmark's validation run. The worker rebuilds the experiment
// spec from (Benchmark, Scenarios) against its own warm framework — the
// pipeline is bit-deterministic given the model fingerprint, so the rebuilt
// conditionals match the coordinator's exactly — then executes trials
// [Index*ChunkSize, min((Index+1)*ChunkSize, Trials)) with the chunk's
// derived RNG stream.
type ChunkRequest struct {
	Benchmark string `json:"benchmark"`
	Scenarios int    `json:"scenarios"`
	Trials    int    `json:"trials"`
	Seed      uint64 `json:"seed"`
	ChunkSize int    `json:"chunk_size"`
	Index     int    `json:"index"`
}

// SpecSource rebuilds the Monte Carlo spec for a benchmark's validation run:
// program, per-scenario setup, and the analytically derived conditionals.
// Trials and Seed are left zero — the chunk handler fills them from the
// request. The daemon wires harness.MCSpec; tests substitute fixtures.
type SpecSource func(ctx context.Context, benchmark string, scenarios int) (montecarlo.Spec, error)

// DecodeJSON decodes exactly one JSON value from body into v, and fails
// closed: a body longer than limit bytes, an unknown field, or anything but
// whitespace after the value is an error. It is the decode of every JSON
// body tsperrd reads, from a client or a peer. A handler passes its
// ResponseWriter, so that net/http closes the connection after an oversized
// body; a client reading a peer's response passes nil.
func DecodeJSON(w http.ResponseWriter, body io.ReadCloser, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	_, err := dec.Token()
	var tooLarge *http.MaxBytesError
	switch {
	case err == io.EOF:
		return nil
	case errors.As(err, &tooLarge):
		return err
	default:
		return errors.New("unexpected data after the JSON value")
	}
}
