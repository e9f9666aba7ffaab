package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"tsperr/internal/core"
)

// TestBodiesAreOneJSONValue sends every JSON endpoint a valid body followed
// by trailing data, or padded past maxRequestBody, and expects a 400: a
// request is exactly one JSON value, so nothing after it can be silently
// dropped. Trailing whitespace stays valid.
func TestBodiesAreOneJSONValue(t *testing.T) {
	ctx := context.Background()
	_, ts := newTestServer(t, ctx, Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
		AnalyzeAt:   fakeAnalyzeAt(),
		Fingerprint: "model-A",
	})
	endpoints := []struct{ path, body string }{
		{"/v1/estimate", `{"benchmark":"typeset"}`},
		{"/v1/batch", `{"scenarios":[{"benchmark":"typeset"}]}`},
		{"/v1/oppoint", `{"benchmark":"typeset","target_error_rate":0.1}`},
	}
	suffixes := []struct {
		name, suffix, wantErr string
	}{
		{"second value", `{"benchmark":"x","scenarios":99999}`, "unexpected data after the JSON value"},
		{"trailing junk", ` junk`, "unexpected data after the JSON value"},
		{"stray bracket", `]`, "unexpected data after the JSON value"},
		{"oversized", strings.Repeat(" ", maxRequestBody), "request body too large"},
	}
	post := func(path, body string) (int, string) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		json.Unmarshal(raw, &e)
		return resp.StatusCode, e.Error
	}
	for _, ep := range endpoints {
		if code, msg := post(ep.path, ep.body+"\n \t\n"); code >= 300 {
			t.Errorf("%s with trailing whitespace: %d %s", ep.path, code, msg)
		}
		for _, sf := range suffixes {
			code, msg := post(ep.path, ep.body+sf.suffix)
			if code != http.StatusBadRequest || !strings.Contains(msg, sf.wantErr) {
				t.Errorf("%s, %s: %d %q; want 400 %q", ep.path, sf.name, code, msg, sf.wantErr)
			}
		}
	}
}
