package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsperr/internal/montecarlo"
)

// TestRemoteChunkRejectsMalformedResponses checks that a peer's chunk
// response is one JSON value of at most maxChunkResponse bytes: trailing
// data or an oversized body is a bad response, never a silently accepted
// prefix.
func TestRemoteChunkRejectsMalformedResponses(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 1, 40, 9)
	res, err := montecarlo.RunChunk(ctx, spec, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	value := string(raw)
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"one value", value, true},
		{"trailing whitespace", value + "\n\t \n", true},
		{"second value", value + `{"index":0,"counts":[1e9]}`, false},
		{"trailing junk", value + " junk", false},
		{"unknown field", `{"index":0,"counts":[],"extra":1}`, false},
		{"oversized", value + strings.Repeat(" ", maxChunkResponse), false},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, tc.body)
		}))
		c := New(Config{Peers: []string{srv.URL}, Fingerprint: "model-A"})
		got, err := c.remoteChunk(ctx, c.peers[0], mcJob(spec, 16), 0)
		srv.Close()
		switch {
		case tc.ok && (err != nil || len(got.Counts) != len(res.Counts)):
			t.Errorf("%s: %+v, %v; want the chunk", tc.name, got, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "bad response")):
			t.Errorf("%s: error %v, want a bad response", tc.name, err)
		}
	}
}
