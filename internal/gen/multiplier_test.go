package gen

import (
	"testing"
	"testing/quick"

	"tsperr/internal/activity"
)

// mulOut returns the low 16 bits of a × b as the multiplier computes them
// in one cycle.
func mulOut(t *testing.T, sim *activity.Sim, m *MultiplierNet, a, b uint32) uint32 {
	t.Helper()
	tr, err := sim.Run(1, func(_ int, in activity.Inputs) {
		in.SetWord(m.A[:], uint64(a))
		in.SetWord(m.B[:], uint64(b))
	})
	if err != nil {
		t.Fatal(err)
	}
	return word(tr, m.N, 0, m.P[:])
}

// compile compiles the multiplier for simulation.
func compile(t *testing.T, m *MultiplierNet) *activity.Sim {
	t.Helper()
	sim, err := activity.Compile(m.N)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestMultiplierFunctional(t *testing.T) {
	m := Multiplier()
	if err := m.N.Validate(); err != nil {
		t.Fatal(err)
	}
	sim := compile(t, m)
	cases := [][2]uint32{
		{0, 0}, {1, 1}, {3, 5}, {255, 255}, {0xFFFF, 0xFFFF},
		{12345, 2}, {0x8000, 2}, {100, 100},
	}
	for _, c := range cases {
		want := (c[0] * c[1]) & 0xFFFF
		if got := mulOut(t, sim, m, c[0], c[1]); got != want {
			t.Errorf("mul(%d,%d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

func TestMultiplierProperty(t *testing.T) {
	m := Multiplier()
	sim := compile(t, m)
	f := func(a, b uint16) bool {
		return mulOut(t, sim, m, uint32(a), uint32(b)) == uint32(a)*uint32(b)&0xFFFF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMultiplierActivationGrowsWithMagnitude(t *testing.T) {
	m := Multiplier()
	// Two quiet cycles, 3 × 1 in cycle 2, two quiet cycles, then every
	// operand bit set in cycle 5.
	tr, err := compile(t, m).Run(6, func(c int, in activity.Inputs) {
		switch c {
		case 2:
			in.SetWord(m.A[:], 3)
			in.SetWord(m.B[:], 1)
		case 5:
			in.SetWord(m.A[:], 0xFFFF)
			in.SetWord(m.B[:], 0xFFFF)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	small, large := tr.Count(2), tr.Count(5)
	if large <= small*2 {
		t.Errorf("large operands should activate far more of the array: %d vs %d", large, small)
	}
}
