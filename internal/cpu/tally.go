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

// dumpReg is the register slot a tally run writes the result of an
// instruction that writes no register to, so that every retirement can
// store its result unconditionally.
const dumpReg = 32

// tallyOp is one static instruction of a tally run: how the loop dispatches
// it, resolved once from the decoded program and the FailTable when the run
// starts, and its tally while the run is in flight, which the run copies out
// to Tally's slices when it ends.
type tallyOp struct {
	// row and min are the op's FailTable row and Min.
	row *[MaxDepthFeature + 1]float64
	// p is the failure probability at the depth feature of an op whose
	// feature is fixed at decode (then Depth equals DepthFlush).
	p      float64
	imm    uint32
	target int32
	// kind is the op, or isa.NumOps for an unimplemented one.
	kind         isa.Op
	rd, rs1, rs2 uint8 // rd is dumpReg when the instruction writes nothing
	min          uint8
	// loadUse marks a load with rd != 0 whose next instruction reads rd:
	// every retirement of it that the run follows with that consumer
	// stalls once.
	loadUse bool

	count, taken                    int64
	sumP, sumP2, sumP3, sumP4, sumQ float64
	result                          uint32
}

// addP adds the failure probability at the Depth feature of one retirement
// to the four power sums.
func (op *tallyOp) addP(p float64) {
	p2 := p * p
	op.sumP += p
	op.sumP2 += p2
	op.sumP3 += p2 * p
	op.sumP4 += p2 * p2
}

// stackOps is the largest program whose op table a tally run keeps on the
// stack; every benchmark kernel fits.
const stackOps = 160

// fixedDepth returns the depth feature of an instruction whose feature does
// not depend on its operands: single-level logic and lui at 1, an immediate
// shift at its active layers plus one, and ops without a datapath feature
// (nop, halt, jal, jr) at 0.
func fixedDepth(dc *decoded) (int, bool) {
	switch {
	case dc.class == classLogic:
		return 1, true
	case dc.class == classNone:
		return 0, true
	case dc.class == classShift && dc.flags&fReadsRs2 == 0:
		return bits.OnesCount32(dc.imm&31) + 1, true
	}
	return 0, false
}

// tallyOps fills a run's op table, one entry per instruction of code, from
// the decoded program and ft.
func tallyOps(ops []tallyOp, code []decoded, ft *FailTable) {
	for i := range code {
		dc := &code[i]
		op := &ops[i]
		if dc.flags&fBad != 0 {
			op.kind = isa.NumOps
			continue
		}
		*op = tallyOp{
			row: ft.Rows[dc.op], min: ft.Min[dc.op],
			imm: dc.imm, target: dc.target,
			kind: dc.op, rd: dc.rd, rs1: dc.rs1, rs2: dc.rs2,
		}
		if dc.flags&fWritesRd == 0 {
			op.rd = dumpReg
		}
		if d, ok := fixedDepth(dc); ok && d >= int(op.min) {
			op.p = op.row[d]
		}
		// A load always falls through, so whether its next retirement
		// stalls is a property of the instruction after it. An
		// unimplemented op never retires, so it consumes nothing.
		if dc.flags&fLoad != 0 && dc.rd != 0 && i+1 < len(code) {
			nx := &code[i+1]
			op.loadUse = nx.flags&fBad == 0 &&
				(nx.flags&fReadsRs1 != 0 && nx.rs1 == dc.rd || nx.flags&fReadsRs2 != 0 && nx.rs2 == dc.rd)
		}
	}
}

// RunTally is RunBatched with the estimation path's accumulation fused into
// the loop: it tallies each retirement where it executes instead of writing
// a DynInst for observers to read back. Its control flow, Stats, errors and
// machine state (registers, memory, the rolling datapath state) are exactly
// RunBatched's, and its tally equals what the DynInst stream would feed
// cfg.Profile and errormodel.ScenarioFeatures: the failure probabilities are
// ft's entries at the Depth and DepthFlush features, added in retirement
// order. On an error the tally covers the instructions retired before it.
//
// Everything that is constant per static instruction is resolved once, into
// the run's op table (tallyOps), so a retirement pays one switch on the op:
//   - An adder-class case forms its carry mask from its own ALU operands
//     ((a+eb+cin)^a^eb in 32 bits is CarriesMask) and shares one feature
//     block. The feature is the longest run of set bits of a mask, which is
//     at most the mask's population count, so a mask with fewer set bits
//     than Min reads a zero column and is never measured; past the gate a
//     zero probability is added as is, which leaves every non-negative sum's
//     bits alone.
//   - Register shifts and mul compute their feature behind the same gate.
//   - Every other op's feature is fixed at decode (fixedDepth), so its
//     probability is looked up once per run.
//
// The cycle count is derived from the tally when the run ends: one cycle per
// retirement, BranchPenalty per taken transfer, and LoadUseStall per
// retirement of a loadUse load that the run followed with its consumer. A
// load always falls through, so that is the load's count, less one if the
// run stopped between the load and its consumer.
func (c *CPU) RunTally(ctx context.Context, ft *FailTable) (*Tally, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var stack [stackOps]tallyOp
	var ops []tallyOp
	if n := len(c.code); n <= stackOps {
		ops = stack[:n]
	} else {
		ops = make([]tallyOp, n)
	}
	tallyOps(ops, c.code, ft)
	t := newTally(len(ops))
	jumps := t.Jumps
	var regs [dumpReg + 1]uint32
	copy(regs[:], c.regs[:])
	mem, memMask := c.mem, c.memMask
	maxInsts := c.cfg.MaxInsts
	prevA, prevB, prevCarries := c.prevA, c.prevB, c.prevCarries
	// insts counts the instructions retired before the current chunk of
	// budget, which the loop counts down to the next poll point.
	var insts, chunk, budget int64
	var halted bool
	var op *tallyOp // the instruction dispatched last
	var err error
	pc := 0
	for uint(pc) < uint(len(ops)) {
		if budget == 0 {
			insts += chunk
			chunk = 0
			if insts >= maxInsts {
				err = fmt.Errorf("%w: limit %d (runaway program?)", ErrInstLimit, maxInsts)
				break
			}
			if err = ctx.Err(); err != nil {
				err = fmt.Errorf("cpu: run aborted after %d instructions: %w", insts, err)
				break
			}
			chunk = min(ctxCheckInterval, maxInsts-insts)
			budget = chunk
		}
		budget--
		op = &ops[pc]
		a := regs[op.rs1]
		var b, res, carries uint32
		var d int
		next := pc + 1

		// The cases mirror opExec: b is the Rs2 register or the immediate,
		// and nop, halt, branches and jr produce 0.
		switch op.kind {
		case isa.OpAdd:
			b = regs[op.rs2]
			res = a + b
			carries = res ^ a ^ b
		case isa.OpAddi:
			b = op.imm
			res = a + b
			carries = res ^ a ^ b
		case isa.OpSub:
			b = regs[op.rs2]
			res = a - b
			carries = res ^ a ^ ^b
		case isa.OpSlt:
			b = regs[op.rs2]
			carries = (a - b) ^ a ^ ^b
			if int32(a) < int32(b) {
				res = 1
			}
		case isa.OpSlti:
			b = op.imm
			carries = (a - b) ^ a ^ ^b
			if int32(a) < int32(b) {
				res = 1
			}
		case isa.OpLw:
			b = op.imm
			addr := a + b
			carries = addr ^ a ^ b
			res = mem[addr&memMask]
		case isa.OpSw:
			b = regs[op.rs2]
			res = a + op.imm
			mem[res&memMask] = b
			carries = (a + b) ^ a ^ b
		case isa.OpBeq:
			b = regs[op.rs2]
			carries = (a - b) ^ a ^ ^b
			if a == b {
				op.taken++
				next = int(op.target)
			}
		case isa.OpBne:
			b = regs[op.rs2]
			carries = (a - b) ^ a ^ ^b
			if a != b {
				op.taken++
				next = int(op.target)
			}
		case isa.OpBlt:
			b = regs[op.rs2]
			carries = (a - b) ^ a ^ ^b
			if int32(a) < int32(b) {
				op.taken++
				next = int(op.target)
			}
		case isa.OpBge:
			b = regs[op.rs2]
			carries = (a - b) ^ a ^ ^b
			if int32(a) >= int32(b) {
				op.taken++
				next = int(op.target)
			}

		case isa.OpSll:
			b = regs[op.rs2]
			res = a << (b & 31)
			d = bits.OnesCount32(b&31) + 1
			goto operandFeature
		case isa.OpSrl:
			b = regs[op.rs2]
			res = a >> (b & 31)
			d = bits.OnesCount32(b&31) + 1
			goto operandFeature
		case isa.OpSra:
			b = regs[op.rs2]
			res = uint32(int32(a) >> (b & 31))
			d = bits.OnesCount32(b&31) + 1
			goto operandFeature
		case isa.OpMul:
			b = regs[op.rs2]
			res = a * b
			d = 32 - bits.LeadingZeros32(min(a, b)|1)
			goto operandFeature

		case isa.OpAnd:
			b = regs[op.rs2]
			res = a & b
			goto fixedFeature
		case isa.OpAndi:
			b = op.imm
			res = a & b
			goto fixedFeature
		case isa.OpOr:
			b = regs[op.rs2]
			res = a | b
			goto fixedFeature
		case isa.OpOri:
			b = op.imm
			res = a | b
			goto fixedFeature
		case isa.OpXor:
			b = regs[op.rs2]
			res = a ^ b
			goto fixedFeature
		case isa.OpXori:
			b = op.imm
			res = a ^ b
			goto fixedFeature
		case isa.OpSlli:
			b = op.imm
			res = a << (b & 31)
			goto fixedFeature
		case isa.OpSrli:
			b = op.imm
			res = a >> (b & 31)
			goto fixedFeature
		case isa.OpSrai:
			b = op.imm
			res = uint32(int32(a) >> (b & 31))
			goto fixedFeature
		case isa.OpLui:
			b = op.imm
			res = b << 16
			goto fixedFeature
		case isa.OpNop:
			b = op.imm
			goto fixedFeature
		case isa.OpHalt:
			b = op.imm
			halted = true
			next = -1
			goto fixedFeature
		case isa.OpJal:
			b = op.imm
			res = uint32(pc + 1)
			op.taken++
			next = int(op.target)
			goto fixedFeature
		case isa.OpJr:
			b = op.imm
			op.taken++
			next = int(a)
			jumps[Jump{pc, next}]++
			goto fixedFeature

		default:
			budget++ // it does not retire
			err = fmt.Errorf("cpu: unimplemented op %v at %d", c.code[pc].op, pc)
			goto stop
		}

		// Adder class: p at the carries that changed since the previous
		// adder op (Depth), q at all of them (DepthFlush).
		{
			md := int(op.min)
			if x := carries ^ prevCarries; bits.OnesCount32(x) >= md {
				op.addP(op.row[LongestRun(x)])
			}
			if bits.OnesCount32(carries) >= md {
				op.sumQ += op.row[LongestRun(carries)]
			}
			prevCarries = carries
			goto retire
		}

	operandFeature:
		if d >= int(op.min) {
			p := op.row[d]
			op.addP(p)
			op.sumQ += p
		}
		prevCarries = 0 // the ALU computed something else; carry state gone
		goto retire

	fixedFeature:
		if p := op.p; p != 0 {
			op.addP(p)
			op.sumQ += p
		}
		prevCarries = 0

	retire:
		regs[op.rd] = res
		op.count++
		op.result = res
		prevA, prevB = a, b
		pc = next
	}
stop:
	copy(c.regs[:], regs[:])
	c.prevA, c.prevB, c.prevCarries = prevA, prevB, prevCarries
	st := Stats{Instructions: insts + chunk - budget, Halted: halted}
	var taken, stalls int64
	for i := range ops {
		e := &ops[i]
		t.Count[i], t.Taken[i], t.Result[i] = e.count, e.taken, e.result
		t.SumP[i], t.SumP2[i], t.SumP3[i], t.SumP4[i], t.SumQ[i] = e.sumP, e.sumP2, e.sumP3, e.sumP4, e.sumQ
		taken += e.taken
		if e.loadUse {
			stalls += e.count
		}
	}
	if err != nil && op != nil && op.loadUse {
		stalls-- // stopped at a poll point between the load and its consumer
	}
	st.Cycles = st.Instructions + c.cfg.BranchPenalty*taken + c.cfg.LoadUseStall*stalls
	if err == nil {
		st.Cycles += NumStages - 1 // drain the pipeline
	}
	return t, st, err
}
