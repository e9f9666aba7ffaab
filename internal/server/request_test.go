package server

import (
	"testing"
	"time"

	"tsperr/internal/core"
)

// The request hash must ignore scheduling knobs (workers, timeout)
// and respond to every result-determining field plus the model fingerprint.
func TestRequestKeyCanonicalization(t *testing.T) {
	base := Request{Benchmark: "patricia", Scenarios: 4}
	key := base.Key("fp1")

	same := []Request{
		{Benchmark: "patricia", Scenarios: 4, Workers: 8},
		{Benchmark: "patricia", Scenarios: 4, TimeoutMS: 1500},
	}
	for _, q := range same {
		if q.Key("fp1") != key {
			t.Errorf("scheduling knob changed the key: %+v", q)
		}
	}

	different := []Request{
		{Benchmark: "dijkstra", Scenarios: 4},
		{Benchmark: "patricia", Scenarios: 5},
		{Benchmark: "patricia", Scenarios: 4, Retries: 1},
		{Benchmark: "patricia", Scenarios: 4, MinScenarios: 2},
		{Benchmark: "patricia", Scenarios: 4, FailFast: true},
	}
	for _, q := range different {
		if q.Key("fp1") == key {
			t.Errorf("result-determining field did not change the key: %+v", q)
		}
	}

	if base.Key("fp2") == key {
		t.Error("model fingerprint did not change the key")
	}
}

func TestRequestTimeoutResolution(t *testing.T) {
	cases := []struct {
		name     string
		ms       int64
		def, max time.Duration
		want     time.Duration
	}{
		{"unset uses default", 0, 2 * time.Second, time.Minute, 2 * time.Second},
		{"unset with no default means none", 0, 0, time.Minute, 0},
		{"explicit within cap", 500, 2 * time.Second, time.Minute, 500 * time.Millisecond},
		{"explicit above cap is clamped", 120000, 2 * time.Second, time.Minute, time.Minute},
		{"no cap passes through", 120000, 0, 0, 2 * time.Minute},
	}
	for _, tc := range cases {
		q := Request{TimeoutMS: tc.ms}
		if got := q.timeout(tc.def, tc.max); got != tc.want {
			t.Errorf("%s: timeout = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU(2)
	a, b, d := &core.Report{Name: "a"}, &core.Report{Name: "b"}, &core.Report{Name: "d"}
	c.add("a", a)
	c.add("b", b)
	if _, ok := c.get("a"); !ok { // touch a: b becomes the eviction victim
		t.Fatal("a missing after insert")
	}
	c.add("d", d)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.get("a"); !ok || got != a {
		t.Error("a should have survived (recently used)")
	}
	if got, ok := c.get("d"); !ok || got != d {
		t.Error("d should be present")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}

	// Refreshing an existing key replaces the value without growing.
	a2 := &core.Report{Name: "a2"}
	c.add("a", a2)
	if got, _ := c.get("a"); got != a2 {
		t.Error("refresh did not replace the cached report")
	}
	if c.len() != 2 {
		t.Errorf("len after refresh = %d, want 2", c.len())
	}
}
