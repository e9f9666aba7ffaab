package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke tests re-exec the test binary as the real command: TestMain
// diverts into main() when the marker env var is set, so flag parsing,
// usage text, and exit codes are exercised through the genuine entry point
// without a separate `go build`.
func TestMain(m *testing.M) {
	if os.Getenv("TSPERR_SMOKE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSelf invokes the command under test with args and returns its exit
// code plus captured stdout/stderr.
func runSelf(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TSPERR_SMOKE_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code = 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, out.String(), errb.String()
}

func TestSmokeNoArgsListsBenchmarks(t *testing.T) {
	code, _, stderr := runSelf(t)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (usage)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "usage: tsperr") {
		t.Errorf("stderr missing usage line: %s", stderr)
	}
	for _, b := range []string{"dijkstra", "typeset", "pgp.encode"} {
		if !strings.Contains(stderr, b) {
			t.Errorf("benchmark list missing %q: %s", b, stderr)
		}
	}
}

func TestSmokeTooManyArgs(t *testing.T) {
	code, _, stderr := runSelf(t, "dijkstra", "typeset")
	if code != 2 || !strings.Contains(stderr, "usage: tsperr") {
		t.Fatalf("exit = %d, stderr = %s; want usage error", code, stderr)
	}
}

func TestSmokeUnknownFlag(t *testing.T) {
	code, _, stderr := runSelf(t, "-no-such-flag")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "no-such-flag") {
		t.Errorf("stderr does not name the bad flag: %s", stderr)
	}
}

func TestSmokeUnknownBenchmarkIsAnalysisFailure(t *testing.T) {
	code, _, stderr := runSelf(t, "no-such-benchmark")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (analysis failure)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "no-such-benchmark") {
		t.Errorf("stderr does not name the benchmark: %s", stderr)
	}
}

func TestSmokeExplain(t *testing.T) {
	code, stdout, stderr := runSelf(t, "explain")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Figures 1 and 2") {
		t.Errorf("explain text missing the flow reference: %s", stdout)
	}
}

func TestSmokeBatchMissingSuiteFile(t *testing.T) {
	code, _, stderr := runSelf(t, "batch", "/no/such/suite.json")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (usage)\nstderr: %s", code, stderr)
	}
}

func TestSmokeBatchRejectsPositionalArg(t *testing.T) {
	code, _, stderr := runSelf(t, "batch", "suite.json", "dijkstra")
	if code != 2 || !strings.Contains(stderr, "usage: tsperr batch") {
		t.Fatalf("exit = %d, stderr = %s; want usage error", code, stderr)
	}
}

func TestSmokeOppointMissingBenchmarkIsUsage(t *testing.T) {
	code, _, stderr := runSelf(t, "oppoint", "-target", "0.01")
	if code != 2 || !strings.Contains(stderr, "usage: tsperr oppoint") {
		t.Fatalf("exit = %d, stderr = %s; want oppoint usage error", code, stderr)
	}
}

func TestSmokeOppointBadTargetIsUsage(t *testing.T) {
	code, _, stderr := runSelf(t, "oppoint", "-target", "2", "typeset")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (usage)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "outside [0, 1]") {
		t.Errorf("stderr does not explain the bad target: %s", stderr)
	}
}

// A ratio grid the search cannot walk is a usage error, like a bad target:
// the search rejects it before building anything.
func TestSmokeOppointBadGridIsUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-steps", "0"},
		{"-min-ratio", "1.3", "-max-ratio", "1.1"},
		{"-min-ratio", "NaN"},
	} {
		code, _, stderr := runSelf(t, append(append([]string{"oppoint"}, args...), "typeset")...)
		if code != 2 || !strings.Contains(stderr, "usage: tsperr oppoint") {
			t.Errorf("%v: exit = %d, stderr = %s; want oppoint usage error", args, code, stderr)
		}
	}
}

func TestSmokeOppointBadVoltageIsUsage(t *testing.T) {
	code, _, stderr := runSelf(t, "oppoint", "-voltage", "9", "typeset")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (usage)\nstderr: %s", code, stderr)
	}
}

func TestSmokeOppointUnknownBenchmarkIsAnalysisFailure(t *testing.T) {
	code, _, stderr := runSelf(t, "oppoint", "no-such-benchmark")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (analysis failure)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "no-such-benchmark") {
		t.Errorf("stderr does not name the benchmark: %s", stderr)
	}
}

func TestSmokeOppointRejectsBatch(t *testing.T) {
	code, _, stderr := runSelf(t, "oppoint", "-batch", "suite.json")
	if code != 2 || !strings.Contains(stderr, "usage: tsperr oppoint") {
		t.Fatalf("exit = %d, stderr = %s; want oppoint usage error", code, stderr)
	}
}

func TestSmokeBatchMalformedSuite(t *testing.T) {
	path := t.TempDir() + "/suite.json"
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runSelf(t, "batch", path)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (usage)\nstderr: %s", code, stderr)
	}
}

// A mode takes only the flags it reads: any other flag is a usage error
// naming it, never silently dropped.
func TestSmokeFlagOutsideModeIsUsage(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"target", []string{"-target", "0.1", "no-such-benchmark"}},
		{"retries", []string{"oppoint", "-retries", "1", "typeset"}},
		{"retries", []string{"figure3", "-retries", "1"}},
	} {
		code, _, stderr := runSelf(t, c.args...)
		if code != 2 || !strings.Contains(stderr, "not defined: -"+c.flag) {
			t.Errorf("%v: exit = %d, stderr = %s; want a usage error naming -%s", c.args, code, stderr, c.flag)
		}
	}
}

func TestSmokeReportUnknownFlag(t *testing.T) {
	code, _, stderr := runSelf(t, "report", "-no-such-flag")
	if code != 2 || !strings.Contains(stderr, "no-such-flag") {
		t.Fatalf("exit = %d, stderr = %s; want flag error", code, stderr)
	}
}

func TestSmokeReportHelpListsFlags(t *testing.T) {
	code, _, stderr := runSelf(t, "report", "-h")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 for -h\nstderr: %s", code, stderr)
	}
	for _, f := range []string{"-scenarios", "-json", "-model-cache"} {
		if !strings.Contains(stderr, f) {
			t.Errorf("help output missing %s: %s", f, stderr)
		}
	}
}

// TestTimeoutBoundsTheColdBuild runs figure3, report and report -json with
// a 1 ms deadline on an empty model cache: each builds its framework under
// the run's deadline, so it exits 1 with the deadline error, and the
// cancelled build publishes no snapshot.
func TestTimeoutBoundsTheColdBuild(t *testing.T) {
	for _, args := range [][]string{
		{"figure3", "-bench", "typeset"},
		{"report"},
		{"report", "-json"},
	} {
		dir := t.TempDir()
		code, stdout, stderr := runSelf(t, append([]string{args[0], "-timeout", "1ms", "-model-cache-dir", dir}, args[1:]...)...)
		if code != 1 || !strings.Contains(stderr, "context deadline exceeded") {
			t.Errorf("%v: exit = %d, want 1 with the deadline error\nstdout: %s\nstderr: %s", args, code, stdout, stderr)
		}
		if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
			t.Errorf("%v: the model cache holds %v (%v), want nothing", args, left, err)
		}
	}
}

// TestResultGoldens pins the figure3 and report modes to bytes the earlier
// standalone figure3 and report binaries printed, from a cold (uncached)
// build.
func TestResultGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a framework and analyzes every benchmark")
	}
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"figure3_typeset.csv", []string{"figure3", "-model-cache=false", "-bench", "typeset", "-scenarios", "1", "-csv"}},
		{"report.md", []string{"report", "-model-cache=false", "-scenarios", "1"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runSelf(t, c.args...)
		if code != 0 {
			t.Fatalf("%v: exit = %d\nstderr: %s", c.args, code, stderr)
		}
		if stdout != string(want) {
			t.Errorf("%v: output drifted from testdata/%s:\n%s", c.args, c.golden, stdout)
		}
	}
}
