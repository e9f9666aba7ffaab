package main

import (
	"bytes"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// Re-exec smoke harness: TestMain diverts into main() under the marker env
// var so flag parsing and exit codes run through the real entry point.
func TestMain(m *testing.M) {
	if os.Getenv("TSPERR_SMOKE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runSelf(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TSPERR_SMOKE_MAIN=1")
	var errb bytes.Buffer
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
	return code, errb.String()
}

func TestSmokeRejectsPositionalArgs(t *testing.T) {
	code, stderr := runSelf(t, "stray-arg")
	if code != 2 || !strings.Contains(stderr, "usage: tsperrd") {
		t.Fatalf("exit = %d, stderr = %s; want usage error", code, stderr)
	}
}

func TestSmokeUnknownFlag(t *testing.T) {
	code, stderr := runSelf(t, "-no-such-flag")
	if code != 2 || !strings.Contains(stderr, "no-such-flag") {
		t.Fatalf("exit = %d, stderr = %s; want flag error", code, stderr)
	}
}

// A port already in use fails the bind: exit 1, with no "listening on" line
// naming an address the daemon never bound.
func TestSmokeHeldPortFailsBeforeListening(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	code, stderr := runSelf(t, "-listen", ln.Addr().String(), "-model-cache=false")
	if code != 1 || strings.Contains(stderr, "listening on") {
		t.Fatalf("exit = %d, stderr = %s; want exit 1 and no listening line", code, stderr)
	}
}

// -listen 127.0.0.1:0 binds a port the kernel chooses, and the log names it.
func TestSmokeListenLogsBoundPort(t *testing.T) {
	d := startDaemon(t, "tsperrd", "-model-cache=false")
	if _, port, err := net.SplitHostPort(d.addr); err != nil || port == "0" {
		t.Fatalf("listening on %s, want the bound port", d.addr)
	}
	d.drain()
}
