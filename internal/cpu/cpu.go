// Package cpu implements the in-order TS-V8 pipeline: a functional simulator
// with cycle-accurate in-order timing (load-use stalls, branch penalties), a
// per-retired-instruction observer used to extract datapath activity
// features, the timing-speculative error-correction emulation (instruction
// replay at half frequency, as in the 45 nm resilient Intel core the paper
// adopts), and the resulting performance model.
package cpu

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"tsperr/internal/isa"
)

// ErrInstLimit is the typed cause returned when a run retires MaxInsts
// instructions without halting (a runaway program). Callers distinguish it
// from a context cancellation with errors.Is.
var ErrInstLimit = errors.New("cpu: instruction limit exceeded")

// ctxCheckInterval is how many retired instructions pass between context
// polls in RunContext: frequent enough that cancellation aborts a simulation
// promptly, rare enough that the check cost vanishes in the decode loop.
const ctxCheckInterval = 8192

// Stages of the pipeline, matching the 6-stage integer unit assumed in the
// paper's experimental setup.
const (
	StageIF = iota
	StageID
	StageRA
	StageEX
	StageME
	StageWB
	NumStages
)

// StageName returns a short mnemonic for a stage index.
func StageName(s int) string {
	return [...]string{"IF", "ID", "RA", "EX", "ME", "WB"}[s]
}

// Config parameterizes a simulation run.
type Config struct {
	// MemWords is the data memory size in 32-bit words (power of two).
	MemWords int
	// MaxInsts aborts runaway programs after this many retired instructions.
	MaxInsts int64
	// LoadUseStall is the number of bubbles between a load and a dependent
	// consumer (1 for this pipeline).
	LoadUseStall int64
	// BranchPenalty is the number of fetch bubbles after a taken branch.
	BranchPenalty int64
	// SkipToggles leaves DynInst.Toggle and DynInst.ToggleFlush unspecified,
	// saving four population counts per retired instruction. Set it when no
	// observer consumes the toggle features; everything else is unaffected.
	// RunTally, the error-rate pipeline's loop, never computes them.
	SkipToggles bool
}

// DefaultConfig returns the standard machine configuration.
func DefaultConfig() Config {
	return Config{MemWords: 1 << 16, MaxInsts: 50_000_000, LoadUseStall: 1, BranchPenalty: 2}
}

// DynInst describes one retired dynamic instruction together with the
// datapath activity features the instruction error model consumes.
type DynInst struct {
	// Index is the static instruction index (program counter).
	Index int
	Op    isa.Op
	// A, B are the operand values seen by the execute stage.
	A, B uint32
	// Result is the value produced (ALU result, loaded value, or effective
	// address for stores).
	Result uint32
	// Taken reports whether a branch was taken.
	Taken bool
	// Depth is the activated-logic-depth feature of the execute stage given
	// normal execution of the previous instruction: for adder-class
	// operations it is the longest run of carry bits that *changed* relative
	// to the previous adder operation (only changing nets activate paths,
	// Definition 3.2); for shifts it is the number of active barrel-shifter
	// layers; shallow logic contributes small constants. It drives the
	// correct-predecessor conditional probability p^c.
	Depth int
	// DepthFlush is the same feature recomputed as if the previous
	// instruction had been squashed into a pipeline bubble (datapath state
	// zero) — the nop-instrumentation trick of Section 4.1 used to extract
	// the error-conditioned probabilities p^e.
	DepthFlush int
	// Toggle is the Hamming distance between this instruction's operand pair
	// and the previous instruction's, i.e. how much of the datapath switches.
	Toggle int
	// ToggleFlush is Toggle recomputed from the flushed (zero) state.
	ToggleFlush int
}

// Observer receives every retired instruction. The pointed-to struct is
// reused; implementations must copy anything they keep.
type Observer func(*DynInst)

// Stats summarizes a run.
type Stats struct {
	Instructions int64
	Cycles       int64
	Halted       bool
}

// CPU is a TS-V8 machine instance.
type CPU struct {
	cfg     Config
	prog    *isa.Program
	code    []decoded // threaded-dispatch table, built once at New
	memMask uint32
	regs    [32]uint32
	mem     []uint32

	prevA, prevB uint32
	prevCarries  uint32

	// dynBuf is the retirement batch buffer, allocated on first use and
	// reused across runs (see RunBatched).
	dynBuf []DynInst
}

// New builds a machine for a program. The program is predecoded into the
// dispatch table once here; the data memory comes from a per-size slab pool
// (see Release).
func New(prog *isa.Program, cfg Config) (*CPU, error) {
	if cfg.MemWords <= 0 || cfg.MemWords&(cfg.MemWords-1) != 0 {
		return nil, fmt.Errorf("cpu: MemWords must be a positive power of two, got %d", cfg.MemWords)
	}
	if cfg.MaxInsts <= 0 {
		return nil, fmt.Errorf("cpu: MaxInsts must be positive")
	}
	return &CPU{
		cfg:     cfg,
		prog:    prog,
		code:    decodeProgram(prog),
		memMask: uint32(cfg.MemWords - 1),
		mem:     getMem(cfg.MemWords),
	}, nil
}

// Reset clears registers and memory.
func (c *CPU) Reset() {
	c.regs = [32]uint32{}
	clear(c.mem)
	c.prevA, c.prevB = 0, 0
	c.prevCarries = 0
}

// Reg reads a register.
func (c *CPU) Reg(i int) uint32 { return c.regs[i] }

// SetReg writes a register (r0 writes are ignored).
func (c *CPU) SetReg(i int, v uint32) {
	if i != 0 {
		c.regs[i] = v
	}
}

// Mem reads a data-memory word.
func (c *CPU) Mem(addr uint32) uint32 { return c.mem[addr&uint32(c.cfg.MemWords-1)] }

// SetMem writes a data-memory word.
func (c *CPU) SetMem(addr uint32, v uint32) { c.mem[addr&uint32(c.cfg.MemWords-1)] = v }

// LoadWords copies words into memory starting at addr.
func (c *CPU) LoadWords(addr uint32, words []uint32) {
	for i, w := range words {
		c.SetMem(addr+uint32(i), w)
	}
}

// CarriesMask returns the carry-in bit of every adder position for a+b
// (+carryIn): bit i is set when position i receives a carry.
func CarriesMask(a, b uint32, carryIn bool) uint32 {
	sum := uint64(a) + uint64(b)
	if carryIn {
		sum++
	}
	return uint32(sum ^ uint64(a) ^ uint64(b))
}

// LongestRun returns the length of the longest run of consecutive set bits.
// It skips from run to run with trailing-zero counts — align the next run to
// bit 0, measure it as the trailing zeros of the complement, shift it out —
// so the cost is a handful of operations per run rather than per bit. The
// function sits on the per-instruction feature path, where carry masks have
// very few runs: an equality comparison (a + ^a + 1) carries out of every
// position (one 32-bit run), and arithmetic on small operands leaves one or
// two short chains. A naive erase-one-bit loop would spin 32 times exactly
// on the most common branch instructions.
func LongestRun(mask uint32) int {
	n := 0
	x := mask
	for x != 0 {
		x >>= uint(bits.TrailingZeros32(x))
		r := bits.TrailingZeros32(^x) // run length; 32 when x is all ones
		if r > n {
			n = r
		}
		x >>= uint(r)
	}
	return n
}

// CarryChainLen returns the length of the longest carry-propagation chain in
// the addition a+b (plus carry-in), which is the settle depth of a
// ripple-carry adder starting from a quiescent (zero) state.
func CarryChainLen(a, b uint32, carryIn bool) int {
	return LongestRun(CarriesMask(a, b, carryIn))
}

// AdderClass reports whether the op exercises the adder carry chain.
func AdderClass(op isa.Op) bool {
	switch op {
	case isa.OpAdd, isa.OpAddi, isa.OpLw, isa.OpSw,
		isa.OpSub, isa.OpSlt, isa.OpSlti,
		isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		return true
	}
	return false
}

// adderOperands returns the effective adder inputs of an adder-class op.
func adderOperands(op isa.Op, a, b uint32) (uint32, uint32, bool) {
	switch op {
	case isa.OpSub, isa.OpSlt, isa.OpSlti, isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		return a, ^b, true
	default:
		return a, b, false
	}
}

// shallowDepth computes the state-independent depth feature of non-adder ops.
func shallowDepth(op isa.Op, a, b uint32) int {
	switch op {
	case isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlli, isa.OpSrli, isa.OpSrai:
		return bits.OnesCount32(b&31) + 1
	case isa.OpMul:
		lo := a
		if b < a {
			lo = b
		}
		return 32 - bits.LeadingZeros32(lo|1)
	case isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpLui:
		return 1
	default:
		return 0
	}
}

// Run executes the program from entry until halt, the end of the program, or
// the instruction limit, invoking obs (if non-nil) per retired instruction.
func (c *CPU) Run(obs Observer) (Stats, error) {
	return c.RunContext(context.Background(), obs)
}

// RunContext is Run under a context: the simulation polls ctx every
// ctxCheckInterval retired instructions and aborts with the context's error,
// so a deadline or cancellation stops even a runaway program promptly. The
// instruction limit and the context race; whichever fires first determines
// the returned error (ErrInstLimit vs. ctx.Err()), never a hang.
func (c *CPU) RunContext(ctx context.Context, obs Observer) (Stats, error) {
	if obs == nil {
		return c.RunBatched(ctx, nil)
	}
	return c.RunBatched(ctx, func(ds []DynInst) {
		for i := range ds {
			obs(&ds[i])
		}
	})
}

// BatchObserver receives retired instructions in retirement order, in
// batches of up to batchLen. The backing slice is reused across calls;
// implementations must copy anything they keep. Every retired instruction is
// delivered exactly once, including ahead of an error return, so batch
// consumers see the same stream a per-instruction Observer would.
type BatchObserver func([]DynInst)

// batchLen sizes the retirement buffer: large enough to amortize the
// observer dispatch to nothing, small enough (8 KiB) to stay L1-resident
// between the simulator writing it and the observers reading it back.
const batchLen = 128

// RunBatched is the interpreter loop that delivers the DynInst stream;
// RunContext adapts per-instruction observers onto it, and RunTally is its
// fused twin for the estimation path. Batching exists for consumers whose
// per-instruction work is a handful of memory operations — delivering them a
// slice turns indirect calls per retired instruction into plain loop
// iterations.
func (c *CPU) RunBatched(ctx context.Context, batch BatchObserver) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	buf := c.dynBuf
	if buf == nil {
		buf = make([]DynInst, batchLen)
		c.dynBuf = buf
	}
	if batch == nil {
		// No consumer: retire through a single scratch slot, never flushed.
		buf = buf[:1]
	}
	n := 0
	var st Stats
	code := c.code
	regs := &c.regs
	maxInsts := c.cfg.MaxInsts
	loadUseStall, branchPenalty := c.cfg.LoadUseStall, c.cfg.BranchPenalty
	skipToggles := c.cfg.SkipToggles
	// The rolling datapath state lives in locals for the duration of the run
	// (each exit path writes it back, keeping sequential runs on one machine
	// continuous), so the feature extraction below stays register-resident.
	prevA, prevB, prevCarries := c.prevA, c.prevB, c.prevCarries
	var insts, cycles int64
	pc := 0
	var lastWasLoad bool
	var lastRd uint8
	// budget counts instructions until the next poll point; it folds the
	// instruction-limit and context checks into one countdown so the loop
	// body pays a single predictable branch for both.
	budget := int64(0)
	for pc >= 0 && pc < len(code) {
		if budget == 0 {
			if n > 0 {
				batch(buf[:n])
				n = 0
			}
			st.Instructions, st.Cycles = insts, cycles
			c.prevA, c.prevB, c.prevCarries = prevA, prevB, prevCarries
			if insts >= maxInsts {
				return st, fmt.Errorf("%w: limit %d (runaway program?)", ErrInstLimit, maxInsts)
			}
			if err := ctx.Err(); err != nil {
				return st, fmt.Errorf("cpu: run aborted after %d instructions: %w", insts, err)
			}
			budget = ctxCheckInterval
			if rem := maxInsts - insts; rem < budget {
				budget = rem
			}
		}
		budget--
		dc := &code[pc]
		if dc.flags&fBad != 0 {
			if n > 0 {
				batch(buf[:n])
			}
			st.Instructions, st.Cycles = insts, cycles
			c.prevA, c.prevB, c.prevCarries = prevA, prevB, prevCarries
			return st, fmt.Errorf("cpu: unimplemented op %v at %d", dc.op, pc)
		}
		a := regs[dc.rs1]
		b := dc.imm
		if dc.flags&fReadsRs2 != 0 {
			b = regs[dc.rs2]
		}

		res, taken := dc.exec(c, dc, a, b, pc)
		// Field writes instead of a composite literal: every DynInst field is
		// assigned on every path below (Depth/DepthFlush in the class switch,
		// toggles unconditionally), so nothing needs re-zeroing per retire.
		d := &buf[n]
		d.Index = pc
		d.Op = dc.op
		d.A, d.B = a, b
		d.Result = res
		d.Taken = taken
		if dc.flags&fWritesRd != 0 {
			regs[dc.rd] = res
		}
		next := pc + 1
		if taken {
			if dc.flags&fJr != 0 {
				next = int(a)
			} else {
				next = int(dc.target)
			}
		}

		// Activity features, by decode-time class.
		switch dc.class {
		case classAdder, classAdderInv:
			eb, cin := b, false
			if dc.class == classAdderInv {
				eb, cin = ^b, true
			}
			carries := CarriesMask(a, eb, cin)
			d.Depth = LongestRun(carries ^ prevCarries)
			d.DepthFlush = LongestRun(carries)
			prevCarries = carries
		case classShift:
			d.Depth = bits.OnesCount32(b&31) + 1
			d.DepthFlush = d.Depth
			prevCarries = 0 // the ALU computed something else; carry state gone
		case classMul:
			lo := a
			if b < a {
				lo = b
			}
			d.Depth = 32 - bits.LeadingZeros32(lo|1)
			d.DepthFlush = d.Depth
			prevCarries = 0
		case classLogic:
			d.Depth = 1
			d.DepthFlush = 1
			prevCarries = 0
		default:
			d.Depth = 0
			d.DepthFlush = 0
			prevCarries = 0
		}
		if !skipToggles {
			d.Toggle = bits.OnesCount32(prevA^a) + bits.OnesCount32(prevB^b)
			d.ToggleFlush = bits.OnesCount32(a) + bits.OnesCount32(b)
		}
		prevA, prevB = a, b

		// Cycle accounting: 1 cycle per instruction, plus hazards.
		cycles++
		if lastWasLoad && lastRd != 0 &&
			((dc.flags&fReadsRs1 != 0 && dc.rs1 == lastRd) || (dc.flags&fReadsRs2 != 0 && dc.rs2 == lastRd)) {
			cycles += loadUseStall
		}
		if taken {
			cycles += branchPenalty
		}
		lastWasLoad = dc.flags&fLoad != 0
		lastRd = dc.rd

		insts++
		if batch != nil {
			n++
			if n == len(buf) {
				batch(buf)
				n = 0
			}
		}
		if dc.flags&fHalt != 0 {
			st.Halted = true
			break
		}
		pc = next
	}
	if n > 0 {
		batch(buf[:n])
	}
	st.Instructions, st.Cycles = insts, cycles
	c.prevA, c.prevB, c.prevCarries = prevA, prevB, prevCarries
	// Drain the pipeline.
	st.Cycles += NumStages - 1
	return st, nil
}
