package cpu

import (
	"context"
	"fmt"
	"math/bits"

	"tsperr/internal/isa"
)

// MaxDepthFeature bounds the activated-depth feature: carry chains on a
// 32-bit datapath never exceed 32, and the shift, multiplier and logic
// features stay below that.
const MaxDepthFeature = 32

// FailTable is the datapath failure model a tally run evaluates per retired
// instruction. Rows[op][d] is the failure probability of op when its
// activated-depth feature is d. Min[op] is the smallest d whose entry is
// nonzero, so every column below it is zero; an op whose row is all zero has
// a nil row and Min 255. NewFailTable builds tables that keep this form.
type FailTable struct {
	Rows [isa.NumOps]*[MaxDepthFeature + 1]float64
	Min  [isa.NumOps]uint8
}

// NewFailTable tabulates prob(op, d) for every op and d in [0,
// MaxDepthFeature].
func NewFailTable(prob func(op isa.Op, depth int) float64) *FailTable {
	ft := &FailTable{}
	for op := isa.Op(0); op < isa.NumOps; op++ {
		var row [MaxDepthFeature + 1]float64
		first := 255
		for d := range row {
			row[d] = prob(op, d)
			if row[d] != 0 && first == 255 {
				first = d
			}
		}
		ft.Min[op] = uint8(first)
		if first < 255 {
			ft.Rows[op] = &row
		}
	}
	return ft
}

// Jump is one taken indirect jump: the jr at PC went to Target.
type Jump struct{ PC, Target int }

// Tally is what one RunTally accumulates, per static instruction (indexed
// by program counter).
type Tally struct {
	// Count is the number of retirements and Taken the number of those that
	// transferred control (a taken branch, every jal and jr).
	Count, Taken []int64
	// Result is the EX result of the last retirement.
	Result []uint32
	// SumP..SumP4 are the first four power sums of the failure probability
	// at the Depth feature (normally executed predecessor), and SumQ the sum
	// at the DepthFlush feature (flushed predecessor), each added in
	// retirement order.
	SumP, SumP2, SumP3, SumP4, SumQ []float64
	// Jumps counts the taken jr retirements by (PC, Target).
	Jumps map[Jump]int64
}

func newTally(n int) *Tally {
	counts := make([]int64, 2*n)
	sums := make([]float64, 5*n)
	return &Tally{
		Count:  counts[:n:n],
		Taken:  counts[n:],
		Result: make([]uint32, n),
		SumP:   sums[:n:n],
		SumP2:  sums[n : 2*n : 2*n],
		SumP3:  sums[2*n : 3*n : 3*n],
		SumP4:  sums[3*n : 4*n : 4*n],
		SumQ:   sums[4*n:],
		Jumps:  map[Jump]int64{},
	}
}

// RunTally is RunBatched with the estimation path's accumulation fused into
// the loop: it tallies each retirement where it executes instead of writing
// a DynInst for observers to read back. Its control flow, Stats, errors and
// machine state (registers, memory, the rolling datapath state) are exactly
// RunBatched's, and its tally equals what the DynInst stream would feed
// cfg.Profile and errormodel.ScenarioFeatures: the failure probabilities are
// ft's entries at the Depth and DepthFlush features, and the sums skip only
// zero probabilities. On an error the tally covers the instructions retired
// before it.
//
// Two shortcuts make it fast and keep it exact. Ops dispatch through a
// switch, which compiles to a jump table, whose cases mirror opExec. And an
// adder-class feature is the longest run of set bits of a carry mask, which
// is at most the mask's population count, so a mask with fewer set bits
// than Min[op] reads a zero column and its run is never measured.
func (c *CPU) RunTally(ctx context.Context, ft *FailTable) (*Tally, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	code := c.code
	t := newTally(len(code))
	count, taken, result := t.Count, t.Taken, t.Result
	sumP, sumP2, sumP3, sumP4, sumQ := t.SumP, t.SumP2, t.SumP3, t.SumP4, t.SumQ
	rows, mins := &ft.Rows, &ft.Min
	var st Stats
	regs := &c.regs
	mem, memMask := c.mem, c.memMask
	maxInsts := c.cfg.MaxInsts
	loadUseStall, branchPenalty := c.cfg.LoadUseStall, c.cfg.BranchPenalty
	prevA, prevB, prevCarries := c.prevA, c.prevB, c.prevCarries
	var insts, cycles int64
	pc := 0
	var lastWasLoad bool
	var lastRd uint8
	budget := int64(0)
	for pc >= 0 && pc < len(code) {
		if budget == 0 {
			st.Instructions, st.Cycles = insts, cycles
			c.prevA, c.prevB, c.prevCarries = prevA, prevB, prevCarries
			if insts >= maxInsts {
				return t, st, fmt.Errorf("%w: limit %d (runaway program?)", ErrInstLimit, maxInsts)
			}
			if err := ctx.Err(); err != nil {
				return t, st, fmt.Errorf("cpu: run aborted after %d instructions: %w", insts, err)
			}
			budget = ctxCheckInterval
			if rem := maxInsts - insts; rem < budget {
				budget = rem
			}
		}
		budget--
		dc := &code[pc]
		if dc.flags&fBad != 0 {
			st.Instructions, st.Cycles = insts, cycles
			c.prevA, c.prevB, c.prevCarries = prevA, prevB, prevCarries
			return t, st, fmt.Errorf("cpu: unimplemented op %v at %d", dc.op, pc)
		}
		a := regs[dc.rs1]
		b := dc.imm
		if dc.flags&fReadsRs2 != 0 {
			b = regs[dc.rs2]
		}

		// The cases mirror opExec; nop and halt produce 0.
		var res uint32
		var tk bool
		switch dc.op {
		case isa.OpAdd, isa.OpAddi:
			res = a + b
		case isa.OpSub:
			res = a - b
		case isa.OpAnd, isa.OpAndi:
			res = a & b
		case isa.OpOr, isa.OpOri:
			res = a | b
		case isa.OpXor, isa.OpXori:
			res = a ^ b
		case isa.OpSll, isa.OpSlli:
			res = a << (b & 31)
		case isa.OpSrl, isa.OpSrli:
			res = a >> (b & 31)
		case isa.OpSra, isa.OpSrai:
			res = uint32(int32(a) >> (b & 31))
		case isa.OpSlt, isa.OpSlti:
			if int32(a) < int32(b) {
				res = 1
			}
		case isa.OpMul:
			res = a * b
		case isa.OpLui:
			res = dc.imm << 16
		case isa.OpLw:
			res = mem[(a+dc.imm)&memMask]
		case isa.OpSw:
			res = a + dc.imm
			mem[res&memMask] = b
		case isa.OpBeq:
			tk = a == b
		case isa.OpBne:
			tk = a != b
		case isa.OpBlt:
			tk = int32(a) < int32(b)
		case isa.OpBge:
			tk = int32(a) >= int32(b)
		case isa.OpJal:
			res, tk = uint32(pc+1), true
		case isa.OpJr:
			tk = true
		}
		if dc.flags&fWritesRd != 0 {
			regs[dc.rd] = res
		}
		count[pc]++
		result[pc] = res
		next := pc + 1
		if tk {
			taken[pc]++
			if dc.flags&fJr != 0 {
				next = int(a)
				t.Jumps[Jump{pc, next}]++
			} else {
				next = int(dc.target)
			}
		}

		// Failure probabilities at the activity features, by decode-time
		// class; p is at Depth and q at DepthFlush.
		md := int(mins[dc.op])
		var p, q float64
		switch dc.class {
		case classAdder, classAdderInv:
			eb, cin := b, false
			if dc.class == classAdderInv {
				eb, cin = ^b, true
			}
			carries := CarriesMask(a, eb, cin)
			if x := carries ^ prevCarries; bits.OnesCount32(x) >= md {
				p = rows[dc.op][LongestRun(x)]
			}
			if bits.OnesCount32(carries) >= md {
				q = rows[dc.op][LongestRun(carries)]
			}
			prevCarries = carries
		case classShift:
			if d := bits.OnesCount32(b&31) + 1; d >= md {
				p = rows[dc.op][d]
				q = p
			}
			prevCarries = 0 // the ALU computed something else; carry state gone
		case classMul:
			lo := a
			if b < a {
				lo = b
			}
			if d := 32 - bits.LeadingZeros32(lo|1); d >= md {
				p = rows[dc.op][d]
				q = p
			}
			prevCarries = 0
		case classLogic:
			if md <= 1 {
				p = rows[dc.op][1]
				q = p
			}
			prevCarries = 0
		default:
			if md == 0 {
				p = rows[dc.op][0]
				q = p
			}
			prevCarries = 0
		}
		if p != 0 {
			sumP[pc] += p
			p2 := p * p
			sumP2[pc] += p2
			sumP3[pc] += p2 * p
			sumP4[pc] += p2 * p2
		}
		if q != 0 {
			sumQ[pc] += q
		}
		prevA, prevB = a, b

		cycles++
		if lastWasLoad && lastRd != 0 &&
			((dc.flags&fReadsRs1 != 0 && dc.rs1 == lastRd) || (dc.flags&fReadsRs2 != 0 && dc.rs2 == lastRd)) {
			cycles += loadUseStall
		}
		if tk {
			cycles += branchPenalty
		}
		lastWasLoad = dc.flags&fLoad != 0
		lastRd = dc.rd

		insts++
		if dc.flags&fHalt != 0 {
			st.Halted = true
			break
		}
		pc = next
	}
	st.Instructions, st.Cycles = insts, cycles
	c.prevA, c.prevB, c.prevCarries = prevA, prevB, prevCarries
	st.Cycles += NumStages - 1
	return t, st, nil
}
