package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"tsperr/internal/mibench"
)

// toggleFloat returns a value whose %g rendering (the canonical-hash form)
// provably differs from v's — even when v is NaN, infinite, or too large for
// small additions to register.
func toggleFloat(v float64) float64 {
	if fmt.Sprintf("%g", v) == "2" {
		return 3
	}
	return 2
}

// FuzzRequestHash pins the canonical-hashing contract of Request.Key:
//
//   - scheduling knobs (workers, timeout_ms) must NOT change the key —
//     requests differing only in how they are scheduled dedup onto one
//     computation;
//   - every result-determining field (benchmark, scenarios, retries,
//     min_scenarios, fail_fast, mc_trials, freq_ratio, voltage, temp_c) and
//     the model fingerprint MUST change the key — two different results must
//     never collide;
//   - JSON field order and whitespace must not matter (the key is computed
//     from the decoded struct, not the wire bytes).
func FuzzRequestHash(f *testing.F) {
	f.Add("typeset", 4, 2, 1, true, 500, "fp-a", 8, int64(1000), 1.15, 0.9, 85.0)
	f.Add("dijkstra", 1, 0, 0, false, 0, "", 0, int64(0), 0.0, 0.0, 0.0)
	f.Add("pgp.encode", 64, 8, 64, true, 5000, "fp-b", 64, int64(600000), 1.3, 1.1, 25.0)
	f.Add("", -3, -1, 99, false, -7, "fp\nwith\nnewlines", -2, int64(-5), -1.0, -0.5, -40.0)
	f.Add("bench=1\nscenarios", 2, 1, 1, true, 1, "fp=x", 3, int64(7), 0.5, 1.4, 125.0)

	f.Fuzz(func(t *testing.T, benchmark string, scenarios, retries, minScenarios int,
		failFast bool, mcTrials int, fingerprint string,
		workers int, timeoutMS int64,
		freqRatio, voltageV, tempC float64) {
		q := Request{
			Benchmark:    benchmark,
			Scenarios:    scenarios,
			Retries:      retries,
			MinScenarios: minScenarios,
			FailFast:     failFast,
			MCTrials:     mcTrials,
			Workers:      workers,
			TimeoutMS:    timeoutMS,
			FreqRatio:    freqRatio,
			VoltageV:     voltageV,
			TempC:        tempC,
		}
		key := q.Key(fingerprint)
		if len(key) != 64 {
			t.Fatalf("key %q is not a sha256 hex digest", key)
		}

		// Scheduling knobs must collide onto the same key.
		sched := q
		sched.Workers = workers + 17
		sched.TimeoutMS = timeoutMS + 12345
		if got := sched.Key(fingerprint); got != key {
			t.Errorf("scheduling knobs changed the key: %s vs %s", got, key)
		}

		// A decode round-trip (the wire path) must reproduce the key: the
		// canonical form depends on field values, not encoding accidents.
		// Invalid UTF-8 is exempt — json.Marshal coerces it to U+FFFD, and the
		// real wire path can only ever deliver valid UTF-8 strings. Non-finite
		// floats are exempt too: json.Marshal refuses them, and validation
		// rejects them at the door on the real wire path.
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if utf8.ValidString(benchmark) && finite(freqRatio) && finite(voltageV) && finite(tempC) {
			buf, err := json.Marshal(q)
			if err != nil {
				t.Fatal(err)
			}
			var rt Request
			if err := json.Unmarshal(buf, &rt); err != nil {
				t.Fatal(err)
			}
			if got := rt.Key(fingerprint); got != key {
				t.Errorf("decode round-trip changed the key: %s vs %s", got, key)
			}
		}

		// Every result-determining mutation must move the key.
		mutations := map[string]func(*Request){
			"benchmark":     func(m *Request) { m.Benchmark += "x" },
			"scenarios":     func(m *Request) { m.Scenarios++ },
			"retries":       func(m *Request) { m.Retries++ },
			"min_scenarios": func(m *Request) { m.MinScenarios++ },
			"fail_fast":     func(m *Request) { m.FailFast = !m.FailFast },
			"mc_trials":     func(m *Request) { m.MCTrials++ },
			// Addition can be absorbed by huge magnitudes (1e300 + ε) or NaN;
			// toggling to a fresh small value always moves the canonical %g
			// rendering instead.
			"freq_ratio": func(m *Request) { m.FreqRatio = toggleFloat(m.FreqRatio) },
			"voltage":    func(m *Request) { m.VoltageV = toggleFloat(m.VoltageV) },
			"temp_c":     func(m *Request) { m.TempC = toggleFloat(m.TempC) },
		}
		for field, mutate := range mutations {
			m := q
			mutate(&m)
			if got := m.Key(fingerprint); got == key {
				t.Errorf("mutating %s did not change the key", field)
			}
		}
		if got := q.Key(fingerprint + "y"); got == key {
			t.Error("mutating the fingerprint did not change the key")
		}

		// The canonical form must be injective across field boundaries: a
		// benchmark name that embeds the serialized form of another field
		// (e.g. "typeset\nscenarios=2") must not produce the same digest as
		// the request that legitimately has those values. Line-based framing
		// with %q-free printf is safe only because every write is
		// newline-terminated and values cannot smuggle a terminator into a
		// *different* field position without shifting every later line; probe
		// the classic collision shape anyway.
		if strings.Contains(benchmark, "\n") {
			alt := q
			alt.Benchmark = strings.ReplaceAll(benchmark, "\n", " ")
			if alt.Benchmark != benchmark && alt.Key(fingerprint) == key {
				t.Error("newline-in-benchmark collided with its flattened form")
			}
		}
	})
}

// FuzzParseRequest runs arbitrary bytes through the three request decoders
// — parseRequest, parseBatchRequest, and the oppoint decode with its
// normalize and validate — none of which may panic. An accepted estimate
// request lies within the limits, and its re-marshalled body parses to the
// same key: a client computes a request's key from the Request it marshals
// (the benchmark's workloads do), so the key must survive the round trip.
func FuzzParseRequest(f *testing.F) {
	for _, body := range []string{
		`{"benchmark":"typeset","scenarios":2}`,
		`{"benchmark":"dijkstra","scenarios":4}`,
		`{"benchmark":"typeset","scenarios":2,"mc_trials":5000}`,
		`{"benchmark":"patricia","scenarios":2,"mc_trials":50}`,
		`{"benchmark":"typeset","scenarios":2,"target_error_rate":0.02,
		  "voltages":[1.1,1.05],"temps_c":[25,85],"min_ratio":1.0,"max_ratio":1.2,"steps":3}`,
		`{"scenarios":[{"benchmark":"typeset"},{"benchmark":"dijkstra","scenarios":2}]}`,
		`{"benchmark":"typeset","freq_ratio":1.2,"voltage":1.0,"temp_c":85,"workers":2,"timeout_ms":500}`,
		`{"benchmark":"typeset","freq_ratio":-0,"voltage":-0,"temp_c":-0}`,
	} {
		f.Add([]byte(body))
	}
	limits := Limits{
		DefaultScenarios: 8, MaxScenarios: 64, MaxRetries: 8, MaxWorkers: 64, MaxMCTrials: 5000,
		Lookup: func(name string) error {
			_, err := mibench.ByName(name)
			return err
		},
	}
	post := func(body []byte) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, err := parseRequest(httptest.NewRecorder(), post(body), limits); err == nil {
			if field := outsideLimits(req, limits); field != "" {
				t.Fatalf("accepted request has %s outside the limits: %+v", field, req)
			}
			buf, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			again, err := parseRequest(httptest.NewRecorder(), post(buf), limits)
			if err != nil {
				t.Fatalf("re-marshalled body %s rejected: %v", buf, err)
			}
			if again.Key("fp") != req.Key("fp") {
				t.Fatalf("re-marshalled body %s changed the key of %s", buf, body)
			}
		}
		if reqs, err := parseBatchRequest(httptest.NewRecorder(), post(body), limits, 32); err == nil {
			for i, req := range reqs {
				if field := outsideLimits(req, limits); field != "" {
					t.Fatalf("accepted batch entry %d has %s outside the limits: %+v", i, field, req)
				}
			}
		}
		var q OppointRequest
		if decodeJSON(httptest.NewRecorder(), post(body).Body, maxRequestBody, &q) == nil {
			q.normalize(limits)
			if q.validate(limits) == nil && len(q.conditions()) > maxOppointConditions {
				t.Fatalf("accepted search spans %d conditions", len(q.conditions()))
			}
		}
	})
}

// outsideLimits names the first field of an estimate request that lies
// outside the limits, or returns "".
func outsideLimits(q *Request, l Limits) string {
	switch {
	case l.Lookup(q.Benchmark) != nil:
		return "benchmark"
	case q.Scenarios < 1 || q.Scenarios > l.MaxScenarios:
		return "scenarios"
	case q.Workers < 0 || q.Workers > l.MaxWorkers:
		return "workers"
	case q.Retries < 0 || q.Retries > l.MaxRetries:
		return "retries"
	case q.MinScenarios < 0 || q.MinScenarios > q.Scenarios:
		return "min_scenarios"
	case q.MCTrials < 0 || q.MCTrials > l.MaxMCTrials:
		return "mc_trials"
	case q.TimeoutMS < 0:
		return "timeout_ms"
	case !(q.ErrorRateThreshold >= 0 && q.ErrorRateThreshold < 1):
		return "error_rate_threshold"
	case q.FreqRatio != 0 && !(q.FreqRatio >= minFreqRatio && q.FreqRatio <= maxFreqRatio):
		return "freq_ratio"
	case q.cond().Validate() != nil:
		return "voltage/temp_c"
	}
	return ""
}
