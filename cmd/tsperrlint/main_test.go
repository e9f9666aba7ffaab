package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// writeModule materializes a throwaway module and chdirs into it, because
// the driver loads packages relative to the working directory.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixturemod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
}

// TestFindingExitsTwo: a finding prints one file:line:col line naming its
// analyzer, and the driver exits 2.
func TestFindingExitsTwo(t *testing.T) {
	writeModule(t, map[string]string{"a.go": `package fixturemod

func total(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}
`})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2 (findings); stderr: %s", code, stderr.String())
	}
	want := "a.go:6:3: [mapiterorder] floating-point accumulation inside map-range loop is iteration-order dependent; sort the keys first\n"
	if got := stdout.String(); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

// TestCleanTreeExitsZero: a clean tree prints nothing and exits 0.
func TestCleanTreeExitsZero(t *testing.T) {
	writeModule(t, map[string]string{"a.go": "package fixturemod\n\nfunc ok() int { return 1 }\n"})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean output = %q, want none", stdout.String())
	}
}
