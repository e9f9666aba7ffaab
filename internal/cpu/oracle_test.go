package cpu

// The threaded-dispatch interpreter (RunBatched) replaced the original
// switch-based decode loop. This file keeps that original loop, ported
// verbatim, as a semantic oracle: every opcode, hazard, and activity feature
// must retire identically through both, instruction by instruction.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"tsperr/internal/isa"
)

// oracleRun is the seed interpreter: per-instruction switch decode, features
// computed through the exported helper predicates. It intentionally mirrors
// the original code rather than the dispatch table, so a decode-time mistake
// (wrong flag, wrong class, wrong resolved immediate) cannot cancel out.
func oracleRun(c *CPU, obs Observer) (Stats, error) {
	var st Stats
	pc := 0
	var d DynInst
	var lastWasLoad bool
	var lastRd uint8
	for pc >= 0 && pc < len(c.prog.Insts) {
		if st.Instructions >= c.cfg.MaxInsts {
			return st, fmt.Errorf("%w: limit %d (runaway program?)", ErrInstLimit, c.cfg.MaxInsts)
		}
		in := &c.prog.Insts[pc]
		a := c.regs[in.Rs1]
		var b uint32
		if in.ReadsRs2() {
			b = c.regs[in.Rs2]
		} else {
			b = uint32(in.Imm)
		}

		d = DynInst{Index: pc, Op: in.Op, A: a, B: b}
		next := pc + 1
		switch in.Op {
		case isa.OpNop:
		case isa.OpHalt:
			st.Halted = true
		case isa.OpAdd, isa.OpAddi:
			d.Result = a + b
		case isa.OpSub:
			d.Result = a - b
		case isa.OpAnd, isa.OpAndi:
			d.Result = a & b
		case isa.OpOr, isa.OpOri:
			d.Result = a | b
		case isa.OpXor, isa.OpXori:
			d.Result = a ^ b
		case isa.OpSll, isa.OpSlli:
			d.Result = a << (b & 31)
		case isa.OpSrl, isa.OpSrli:
			d.Result = a >> (b & 31)
		case isa.OpSra, isa.OpSrai:
			d.Result = uint32(int32(a) >> (b & 31))
		case isa.OpSlt, isa.OpSlti:
			if int32(a) < int32(b) {
				d.Result = 1
			}
		case isa.OpMul:
			d.Result = a * b
		case isa.OpLui:
			d.Result = uint32(in.Imm) << 16
		case isa.OpLw:
			addr := a + uint32(in.Imm)
			d.Result = c.Mem(addr)
		case isa.OpSw:
			addr := a + uint32(in.Imm)
			c.SetMem(addr, c.regs[in.Rs2])
			d.Result = addr
		case isa.OpBeq:
			d.Taken = a == b
		case isa.OpBne:
			d.Taken = a != b
		case isa.OpBlt:
			d.Taken = int32(a) < int32(b)
		case isa.OpBge:
			d.Taken = int32(a) >= int32(b)
		case isa.OpJal:
			d.Result = uint32(pc + 1)
			d.Taken = true
		case isa.OpJr:
			d.Taken = true
		default:
			return st, fmt.Errorf("cpu: unimplemented op %v at %d", in.Op, pc)
		}

		if in.WritesRd() {
			c.regs[in.Rd] = d.Result
		}
		if d.Taken {
			switch in.Op {
			case isa.OpJr:
				next = int(c.regs[in.Rs1])
			default:
				next = in.Target
			}
		}

		// Activity features.
		if AdderClass(in.Op) {
			ea, eb, cin := adderOperands(in.Op, a, b)
			carries := CarriesMask(ea, eb, cin)
			d.Depth = oracleLongestRun(carries ^ c.prevCarries)
			d.DepthFlush = oracleLongestRun(carries)
			c.prevCarries = carries
		} else {
			d.Depth = shallowDepth(in.Op, a, b)
			d.DepthFlush = d.Depth
			c.prevCarries = 0
		}
		d.Toggle = bits.OnesCount32(c.prevA^a) + bits.OnesCount32(c.prevB^b)
		d.ToggleFlush = bits.OnesCount32(a) + bits.OnesCount32(b)
		c.prevA, c.prevB = a, b

		// Cycle accounting: 1 cycle per instruction, plus hazards.
		st.Cycles++
		if lastWasLoad && lastRd != 0 &&
			((in.ReadsRs1() && in.Rs1 == lastRd) || (in.ReadsRs2() && in.Rs2 == lastRd)) {
			st.Cycles += c.cfg.LoadUseStall
		}
		if d.Taken {
			st.Cycles += c.cfg.BranchPenalty
		}
		lastWasLoad = in.Op.IsLoad()
		lastRd = in.Rd

		st.Instructions++
		if obs != nil {
			obs(&d)
		}
		if st.Halted {
			break
		}
		pc = next
	}
	// Drain the pipeline.
	st.Cycles += NumStages - 1
	return st, nil
}

// oracleLongestRun is the bit-at-a-time reference for the run-skipping
// LongestRun in the hot loop.
func oracleLongestRun(mask uint32) int {
	best, cur := 0, 0
	for i := 0; i < 32; i++ {
		if mask>>uint(i)&1 == 1 {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur = 0
		}
	}
	return best
}

func TestLongestRunMatchesReference(t *testing.T) {
	cases := []uint32{0, 1, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF, 0xFFFF0000,
		0x0000FFFF, 0xAAAAAAAA, 0x55555555, 0xF0F0F0F0, 0x00100400, 0xFFFFFFFE}
	for _, m := range cases {
		if got, want := LongestRun(m), oracleLongestRun(m); got != want {
			t.Errorf("LongestRun(%#08x) = %d, want %d", m, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		m := rng.Uint32()
		if got, want := LongestRun(m), oracleLongestRun(m); got != want {
			t.Fatalf("LongestRun(%#08x) = %d, want %d", m, got, want)
		}
	}
}

// oracleConfig shrinks memory so address wrap-around is exercised and keeps
// toggles on (the oracle always computes them).
func oracleConfig() Config {
	cfg := DefaultConfig()
	cfg.MemWords = 256
	return cfg
}

// opPatterns are the EX operand values the per-opcode programs cycle
// through: identities, sign boundaries, alternating masks, and values that
// build long and short carry chains.
var opPatterns = []uint32{
	0, 1, 2, 31, 32, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF,
	0xAAAAAAAA, 0x55555555, 0xDEADBEEF, 0x0000FFFF, 0xFFFF0000, 100, 255,
}

// seedCPU loads the operand patterns into r1..r15 and a recognizable ramp
// into data memory.
func seedCPU(c *CPU) {
	for i, v := range opPatterns {
		c.SetReg(i+1, v)
	}
	for w := 0; w < 256; w++ {
		c.SetMem(uint32(w), uint32(w)*0x01010101)
	}
}

// runEquiv retires prog through both interpreters from identical initial
// state and requires bit-identical DynInst streams, stats, errors, registers,
// memory and rolling datapath state. It then retires prog through the tally
// run under each test table, which must end in the same stats, error and
// machine state with the tally of the oracle's stream.
func runEquiv(t *testing.T, prog *isa.Program, cfg Config) {
	t.Helper()
	collect := func(run func(*CPU, Observer) (Stats, error)) ([]DynInst, Stats, error, *CPU) {
		c, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seedCPU(c)
		var ds []DynInst
		st, runErr := run(c, func(d *DynInst) { ds = append(ds, *d) })
		return ds, st, runErr, c
	}
	gotDs, gotSt, gotErr, gotC := collect(func(c *CPU, obs Observer) (Stats, error) { return c.Run(obs) })
	wantDs, wantSt, wantErr, wantC := collect(oracleRun)

	if (gotErr == nil) != (wantErr == nil) ||
		(gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error mismatch: dispatch %v, oracle %v", gotErr, wantErr)
	}
	if gotSt != wantSt {
		t.Errorf("stats mismatch: dispatch %+v, oracle %+v", gotSt, wantSt)
	}
	if len(gotDs) != len(wantDs) {
		t.Fatalf("retired %d instructions, oracle retired %d", len(gotDs), len(wantDs))
	}
	for i := range gotDs {
		if gotDs[i] != wantDs[i] {
			t.Fatalf("retire %d diverges:\ndispatch %+v\noracle   %+v", i, gotDs[i], wantDs[i])
		}
	}
	sameState(t, "dispatch", gotC, wantC)

	for i, ft := range testFailTables() {
		c, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seedCPU(c)
		tally, st, err := c.RunTally(t.Context(), ft)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("table %d: error mismatch: tally %v, oracle %v", i, err, wantErr)
		}
		if st != wantSt {
			t.Errorf("table %d: stats mismatch: tally %+v, oracle %+v", i, st, wantSt)
		}
		sameState(t, fmt.Sprintf("tally (table %d)", i), c, wantC)
		sameTally(t, fmt.Sprintf("table %d", i), tally, streamTally(wantDs, len(prog.Insts), ft))
	}
}

// sameState requires got's registers, memory and rolling datapath state to
// equal the oracle machine's.
func sameState(t *testing.T, name string, got, want *CPU) {
	t.Helper()
	if got.regs != want.regs {
		t.Errorf("final registers diverge:\n%s %v\noracle   %v", name, got.regs, want.regs)
	}
	if !reflect.DeepEqual(got.mem, want.mem) {
		t.Errorf("%s: final memory diverges", name)
	}
	if got.prevA != want.prevA || got.prevB != want.prevB || got.prevCarries != want.prevCarries {
		t.Errorf("%s: rolling state (%#x, %#x, %#x), oracle (%#x, %#x, %#x)", name,
			got.prevA, got.prevB, got.prevCarries, want.prevA, want.prevB, want.prevCarries)
	}
}

// opProgram builds a program that exercises a single opcode across the
// operand patterns, varying rd/rs1/rs2/imm and interleaving adds so the
// rolling carry state (prevCarries, prevA/prevB) is nontrivial.
func opProgram(op isa.Op) *isa.Program {
	p := &isa.Program{Name: "op-" + op.String()}
	emit := func(in isa.Inst) { p.Insts = append(p.Insts, in) }
	for i := range opPatterns {
		rs1 := uint8(1 + i%15)
		rs2 := uint8(1 + (i+3)%15)
		rd := uint8(16 + i%8) // keep the pattern registers stable
		imm := int32(opPatterns[(i+5)%len(opPatterns)])
		switch {
		case op.IsBranch():
			// Branch over a nop so both outcomes are covered; targets are
			// forward, so the program always terminates.
			emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Target: len(p.Insts) + 2})
			emit(isa.Inst{Op: isa.OpNop})
		case op == isa.OpJal:
			emit(isa.Inst{Op: op, Rd: rd, Target: len(p.Insts) + 1})
		case op == isa.OpJr:
			// Jump to the next instruction: rd holds the return target.
			emit(isa.Inst{Op: isa.OpAddi, Rd: 24, Imm: int32(len(p.Insts) + 2)})
			emit(isa.Inst{Op: op, Rs1: 24})
		case op == isa.OpLw, op == isa.OpSw:
			emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm})
		case op.IsRType():
			emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
		default: // I-type and nop/halt-like
			emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
		}
		// Perturb the rolling datapath state between instances.
		emit(isa.Inst{Op: isa.OpAdd, Rd: 25, Rs1: rs1, Rs2: rs2})
	}
	emit(isa.Inst{Op: isa.OpHalt})
	return p
}

// TestDispatchMatchesOraclePerOpcode proves opcode-by-opcode that the
// function-table interpreter preserves the original switch semantics,
// including the Depth/DepthFlush/Toggle features and cycle accounting.
func TestDispatchMatchesOraclePerOpcode(t *testing.T) {
	for op := isa.OpNop; op < isa.NumOps; op++ {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			runEquiv(t, opProgram(op), oracleConfig())
		})
	}
}

// TestDispatchMatchesOracleUnknownOp proves both interpreters reject an
// undecodable opcode with the same error at the same point.
func TestDispatchMatchesOracleUnknownOp(t *testing.T) {
	p := &isa.Program{Name: "bad", Insts: []isa.Inst{
		{Op: isa.OpAdd, Rd: 20, Rs1: 1, Rs2: 2},
		{Op: isa.NumOps}, // not a real opcode
		{Op: isa.OpHalt},
	}}
	runEquiv(t, p, oracleConfig())
}

// TestDispatchMatchesOracleInstLimit proves the budget-countdown limit check
// aborts at exactly the same retire count as the oracle's per-instruction
// check, with identical partial stats.
func TestDispatchMatchesOracleInstLimit(t *testing.T) {
	p := &isa.Program{Name: "spin", Insts: []isa.Inst{
		{Op: isa.OpAddi, Rd: 20, Rs1: 20, Imm: 1},
		{Op: isa.OpJal, Target: 0},
	}}
	for _, limit := range []int64{1, 2, 100, ctxCheckInterval - 1, ctxCheckInterval, ctxCheckInterval + 1, 3*ctxCheckInterval + 7} {
		cfg := oracleConfig()
		cfg.MaxInsts = limit
		runEquiv(t, p, cfg)
	}
}

// TestDispatchMatchesOracleStress runs a combined kernel — nested loops,
// subroutine call/return, memory traffic, load-use hazards, every ALU class —
// through both interpreters.
func TestDispatchMatchesOracleStress(t *testing.T) {
	prog := isa.MustAssemble("stress", `
		li   r1, 0          # i
		li   r2, 24         # trip count
		li   r3, 0          # accumulator
	loop:
		sw   r3, 0(r1)
		lw   r4, 0(r1)      # load-use hazard on the next add
		add  r3, r3, r4
		mul  r5, r1, r3
		xor  r3, r3, r5
		slli r6, r1, 3
		srli r7, r3, 2
		sub  r3, r3, r7
		jal  r31, sub1
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	sub1:
		and  r8, r3, r6
		or   r3, r8, r1
		slt  r9, r3, r6
		beq  r9, r0, skip
		addi r3, r3, 17
	skip:
		jr   r31
	`)
	runEquiv(t, prog, oracleConfig())
}

// TestDispatchMatchesOracleHalts covers termination without an explicit halt
// (falling off the end of the program).
func TestDispatchMatchesOracleHalts(t *testing.T) {
	p := &isa.Program{Name: "fallthrough", Insts: []isa.Inst{
		{Op: isa.OpAddi, Rd: 20, Rs1: 1, Imm: 42},
		{Op: isa.OpAdd, Rd: 21, Rs1: 20, Rs2: 2},
	}}
	runEquiv(t, p, oracleConfig())
}
