package activity

import (
	"bytes"
	"testing"
)

// FuzzReadVCD is a native fuzz target: the VCD parser must never panic on
// arbitrary bytes, and a trace it accepts must round-trip through WriteVCD
// and ReadVCD to the same activation bits. Run with:
// go test -fuzz FuzzReadVCD ./internal/activity
func FuzzReadVCD(f *testing.F) {
	f.Add([]byte("$var wire 1 ! g0 $end\n$enddefinitions $end\n#0\n1!\n"))
	f.Add([]byte("#0\n0!\n"))
	f.Add([]byte("$enddefinitions $end\n#x\n"))
	f.Add([]byte(""))
	f.Add([]byte(vcdOneGate + "#5\n1!\n#2\n0!\n"))
	f.Add([]byte(vcdOneGate + "#3\n1!\n#3\n0!\n"))
	f.Add([]byte(vcdOneGate + "#0\n1!\n#20000000\n"))
	f.Add([]byte(vcdOneGate + "#0\n11111111111\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadVCD(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteVCD(&buf, tr, "fuzz"); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := ReadVCD(&buf)
		if err != nil {
			t.Fatalf("serialized trace failed to parse: %v", err)
		}
		if back.NumGates() != tr.NumGates() || back.Cycles() != tr.Cycles() {
			t.Fatalf("round trip changed the shape: %d×%d → %d×%d",
				tr.NumGates(), tr.Cycles(), back.NumGates(), back.Cycles())
		}
		if !equalTraces(tr, back) {
			t.Fatal("round trip changed the activation bits")
		}
	})
}
