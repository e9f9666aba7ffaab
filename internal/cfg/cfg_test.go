package cfg

import (
	"math"
	"sync"
	"testing"

	"tsperr/internal/cpu"
	"tsperr/internal/isa"
)

const loopSrc = `
	li r1, 3        # 0: block 0
	li r2, 0        # 1
loop:
	add r2, r2, r1  # 2: block 1
	addi r1, r1, -1 # 3
	bne r1, r0, loop# 4
	halt            # 5: block 2
`

func buildLoop(t *testing.T) (*isa.Program, *Graph) {
	t.Helper()
	p, err := isa.Assemble("loop", loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, g
}

func TestBuildBlocks(t *testing.T) {
	_, g := buildLoop(t)
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(g.Blocks))
	}
	if g.Blocks[0].Start != 0 || g.Blocks[0].End != 2 {
		t.Errorf("block 0 = [%d,%d)", g.Blocks[0].Start, g.Blocks[0].End)
	}
	if g.Blocks[1].Start != 2 || g.Blocks[1].End != 5 {
		t.Errorf("block 1 = [%d,%d)", g.Blocks[1].Start, g.Blocks[1].End)
	}
	if g.Blocks[1].NumInsts() != 3 {
		t.Error("n_i of loop block should be 3")
	}
	// Successors: block0 -> block1; block1 -> {block1, block2}.
	if len(g.Blocks[0].Succs) != 1 || g.Blocks[0].Succs[0] != 1 {
		t.Errorf("block0 succs = %v", g.Blocks[0].Succs)
	}
	got := map[int]bool{}
	for _, s := range g.Blocks[1].Succs {
		got[s] = true
	}
	if !got[1] || !got[2] {
		t.Errorf("block1 succs = %v", g.Blocks[1].Succs)
	}
	for i := range g.BlockOf {
		want := 0
		if i >= 2 {
			want = 1
		}
		if i >= 5 {
			want = 2
		}
		if g.BlockOf[i] != want {
			t.Errorf("BlockOf[%d] = %d, want %d", i, g.BlockOf[i], want)
		}
	}
}

func TestProfileCountsAndActivation(t *testing.T) {
	p, g := buildLoop(t)
	pr := NewProfile(g)
	c, err := cpu.New(p, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(pr.Observer()); err != nil {
		t.Fatal(err)
	}
	if pr.ExecCount[0] != 1 || pr.ExecCount[1] != 3 || pr.ExecCount[2] != 1 {
		t.Errorf("exec counts = %v", pr.ExecCount)
	}
	if pr.InstCount != 2+3*3+1 {
		t.Errorf("inst count = %d", pr.InstCount)
	}
	// Loop block entered once from block 0 and twice from itself.
	if got := pr.ActivationProb(Edge{0, 1}); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("p^a(0->1) = %v", got)
	}
	if got := pr.ActivationProb(Edge{1, 1}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("p^a(1->1) = %v", got)
	}
	in := pr.IncomingEdges(1)
	if len(in) != 2 || in[0].From != 0 || in[1].From != 1 {
		t.Errorf("incoming edges = %v", in)
	}
	// Activation probabilities of incoming edges sum to 1 for entered blocks.
	var sum float64
	for _, e := range in {
		sum += pr.ActivationProb(e)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("incoming activation sums to %v", sum)
	}
}

// A settled profile serves concurrent readers: with -race this fails if a
// reader still fills the lazy edge state.
func TestSettledProfileConcurrentReaders(t *testing.T) {
	p, g := buildLoop(t)
	pr := NewProfile(g)
	c, err := cpu.New(p, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(pr.Observer()); err != nil {
		t.Fatal(err)
	}
	pr.Settle()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range g.Blocks {
				var sum float64
				for _, e := range pr.IncomingEdges(b) {
					sum += pr.ActivationProb(e)
				}
				if b == 1 && math.Abs(sum-1) > 1e-12 {
					t.Errorf("block 1 incoming activation sums to %v", sum)
				}
			}
		}()
	}
	wg.Wait()
}

func TestProfileScale(t *testing.T) {
	p, g := buildLoop(t)
	pr := NewProfile(g)
	c, _ := cpu.New(p, cpu.DefaultConfig())
	if _, err := c.Run(pr.Observer()); err != nil {
		t.Fatal(err)
	}
	before := pr.ActivationProb(Edge{1, 1})
	pr.Scale(1000)
	if pr.ExecCount[1] != 3000 || pr.InstCount != 12000 {
		t.Errorf("scaled counts = %v / %d", pr.ExecCount, pr.InstCount)
	}
	if math.Abs(pr.ActivationProb(Edge{1, 1})-before) > 1e-12 {
		t.Error("scaling must preserve activation probabilities")
	}
}

func TestSCCLoopDetected(t *testing.T) {
	p, g := buildLoop(t)
	pr := NewProfile(g)
	c, _ := cpu.New(p, cpu.DefaultConfig())
	if _, err := c.Run(pr.Observer()); err != nil {
		t.Fatal(err)
	}
	s := ComputeSCC(g, pr)
	// Components: {0}, {1}, {2} with 1 self-looping; topological order
	// must put 0 before 1 before 2.
	if len(s.Comps) != 3 {
		t.Fatalf("components = %v", s.Comps)
	}
	if s.Comp[0] > s.Comp[1] || s.Comp[1] > s.Comp[2] {
		t.Errorf("condensation order wrong: %v", s.Comp)
	}
}

func TestSCCMultiBlockCycle(t *testing.T) {
	src := `
	start:
		beq r0, r0, middle
	other:
		beq r1, r0, start   # back edge creating a 3-block cycle
		halt
	middle:
		beq r0, r1, other
		halt
	`
	p, err := isa.Assemble("cyc", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeSCC(g, nil)
	// start, other, middle must share a component.
	c0 := s.Comp[g.BlockOf[0]]
	if s.Comp[g.BlockOf[1]] != c0 || s.Comp[g.BlockOf[3]] != c0 {
		t.Errorf("cycle blocks not in one SCC: %v", s.Comp)
	}
}

func TestIndirectJumpEdgesFromProfile(t *testing.T) {
	src := `
		jal r31, sub
		halt
	sub:
		jr r31
	`
	p, _ := isa.Assemble("ind", src)
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	// jr block has no static successors.
	jrBlock := g.BlockOf[2]
	if len(g.Blocks[jrBlock].Succs) != 0 {
		t.Errorf("jr block static succs = %v", g.Blocks[jrBlock].Succs)
	}
	pr := NewProfile(g)
	c, _ := cpu.New(p, cpu.DefaultConfig())
	if _, err := c.Run(pr.Observer()); err != nil {
		t.Fatal(err)
	}
	// Profile must discover the return edge jr -> halt block.
	pr.Finish()
	if pr.EdgeCount[Edge{jrBlock, g.BlockOf[1]}] != 1 {
		t.Errorf("return edge not profiled: %v", pr.EdgeCount)
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(&isa.Program{Name: "empty"}); err == nil {
		t.Error("empty program should fail")
	}
}
