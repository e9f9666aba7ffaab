package main

import (
	"bytes"
	"context"
	"os"
	"testing"
)

// TestSweepGolden pins the example's output: eight AnalyzeAt calls on
// one framework, whose table must match the golden byte for byte.
func TestSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a framework and analyzes eight ratios")
	}
	var buf bytes.Buffer
	if err := run(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(golden) {
		t.Errorf("sweep table drifted from the golden:\n got:\n%s\nwant:\n%s", got, golden)
	}
}
