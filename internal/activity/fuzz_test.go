package activity

import (
	"bytes"
	"testing"

	"tsperr/internal/netlist"
	"tsperr/internal/numeric"
)

// TestReadVCDNeverPanics feeds random byte soup to the VCD parser.
func TestReadVCDNeverPanics(t *testing.T) {
	rng := numeric.NewRNG(2024)
	pieces := []string{
		"$var wire 1 ! g0 $end\n", "$enddefinitions $end\n", "#0\n", "#17\n",
		"0!\n", "1!\n", "x!\n", "$dumpvars\n", "garbage\n", "#-1\n", "0\x7f\n",
		"##\n", "", "1\n",
	}
	for trial := 0; trial < 500; trial++ {
		var buf bytes.Buffer
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			buf.WriteString(pieces[rng.Intn(len(pieces))])
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %q: %v", buf.String(), r)
				}
			}()
			_, _ = ReadVCD(bytes.NewReader(buf.Bytes()))
		}()
	}
}

// equalTraces reports whether two traces of the same shape activate the
// same gates in the same cycles.
func equalTraces(a, b *Trace) bool {
	for c := 0; c < a.Cycles(); c++ {
		for g := 0; g < a.NumGates(); g++ {
			if a.Activated(c, netlist.GateID(g)) != b.Activated(c, netlist.GateID(g)) {
				return false
			}
		}
	}
	return true
}

// TestVCDRoundTripRandomTraces round-trips randomly generated activation
// traces of varying shapes, some longer than one 64-cycle chunk.
func TestVCDRoundTripRandomTraces(t *testing.T) {
	rng := numeric.NewRNG(77)
	for trial := 0; trial < 100; trial++ {
		gates := 1 + rng.Intn(200)
		cycles := rng.Intn(20)
		if trial%10 == 0 {
			cycles = 60 + rng.Intn(80)
		}
		tr := &Trace{}
		if err := tr.reset(gates, cycles); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cycles; c++ {
			for g := 0; g < gates; g++ {
				if rng.Float64() < 0.2 {
					tr.act[c>>6*gates+g] |= 1 << uint(c&63)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteVCD(&buf, tr, "fuzz"); err != nil {
			t.Fatal(err)
		}
		back, err := ReadVCD(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if back.NumGates() != gates || back.Cycles() != cycles {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		if !equalTraces(tr, back) {
			t.Fatalf("trial %d: activation mismatch", trial)
		}
	}
}
