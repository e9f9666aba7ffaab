package activity

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tsperr/internal/netlist"
)

// VCD support: the DTA flow of Figure 1 consumes signal activity as a VCD
// file. We implement the subset needed to round-trip activation traces: one
// single-bit wire per gate, scalar value changes, and #<cycle> timestamps.
// A gate appears in a cycle's change list exactly when it is activated in
// that cycle, so activation sets and VCD change records are in bijection
// (starting from the all-zero power-on state).

// idCode converts a gate index into a VCD identifier (printable ASCII 33-126).
func idCode(i int) string {
	var b []byte
	for {
		b = append(b, byte(33+i%94))
		i /= 94
		if i == 0 {
			break
		}
	}
	return string(b)
}

// maxIDLen bounds the identifiers parseIDCode accepts: five characters
// encode every index below 94^5, far past any trace's gate count, and keep
// the decoded value from overflowing.
const maxIDLen = 5

// parseIDCode inverts idCode; ok is false for malformed identifiers.
func parseIDCode(s string) (int, bool) {
	if len(s) == 0 || len(s) > maxIDLen {
		return 0, false
	}
	v := 0
	mul := 1
	for i := 0; i < len(s); i++ {
		c := int(s[i])
		if c < 33 || c > 126 {
			return 0, false
		}
		v += (c - 33) * mul
		mul *= 94
	}
	return v, true
}

// WriteVCD serializes an activation trace as a VCD document. Gate values are
// reconstructed by toggling from the all-zero initial state at each
// activation, which reproduces exactly the value stream a zero-delay
// simulator would dump.
func WriteVCD(w io.Writer, tr *Trace, moduleName string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "$date tsperr $end\n$version tsperr activity trace $end\n")
	fmt.Fprintf(bw, "$timescale 1ns $end\n$scope module %s $end\n", moduleName)
	for i := 0; i < tr.gates; i++ {
		fmt.Fprintf(bw, "$var wire 1 %s g%d $end\n", idCode(i), i)
	}
	fmt.Fprintf(bw, "$upscope $end\n$enddefinitions $end\n")
	vals := make([]bool, tr.gates)
	for t := 0; t < tr.cycles; t++ {
		fmt.Fprintf(bw, "#%d\n", t)
		for i := 0; i < tr.gates; i++ {
			if tr.Activated(t, netlist.GateID(i)) {
				vals[i] = !vals[i]
				bit := byte('0')
				if vals[i] {
					bit = '1'
				}
				fmt.Fprintf(bw, "%c%s\n", bit, idCode(i))
			}
		}
	}
	return bw.Flush()
}

// ReadVCD parses a VCD document written by WriteVCD (or any VCD using scalar
// single-bit changes with #cycle timestamps) back into an activation trace.
// Timestamps must increase, and the trace they span must fit MaxTraceBits.
func ReadVCD(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	tr := &Trace{}
	cur := -1
	inHeader := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if inHeader {
			if strings.HasPrefix(line, "$var") {
				tr.gates++
			} else if strings.HasPrefix(line, "$enddefinitions") {
				inHeader = false
			}
			continue
		}
		switch line[0] {
		case '#':
			t, err := strconv.Atoi(line[1:])
			if err != nil {
				return nil, fmt.Errorf("activity: bad timestamp %q", line)
			}
			if t <= cur {
				return nil, fmt.Errorf("activity: timestamp %q does not follow #%d", line, cur)
			}
			if max(tr.gates, 1) > MaxTraceBits/(t+1) {
				return nil, fmt.Errorf("activity: timestamp %q: %d gates × %d cycles exceed %d bits", line, tr.gates, t+1, MaxTraceBits)
			}
			cur = t
			if n := (cur>>6 + 1) * tr.gates; len(tr.act) < n {
				tr.act = append(tr.act, make([]uint64, n-len(tr.act))...)
			}
		case '0', '1', 'x', 'z':
			idx, ok := parseIDCode(line[1:])
			if !ok || idx >= tr.gates {
				return nil, fmt.Errorf("activity: bad identifier in %q", line)
			}
			if cur < 0 {
				return nil, fmt.Errorf("activity: value change before first timestamp: %q", line)
			}
			tr.act[cur>>6*tr.gates+idx] |= 1 << (uint(cur) & 63)
		case '$':
			// $dumpvars etc. — ignore.
		default:
			return nil, fmt.Errorf("activity: unrecognized VCD line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	tr.cycles = cur + 1
	return tr, nil
}
