package program

import (
	"testing"
	"testing/quick"

	"doppelganger/internal/isa"
)

func TestAlignAddr(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0}, {1, 0}, {7, 0}, {8, 8}, {15, 8}, {0x1001, 0x1000},
	}
	for _, c := range cases {
		if got := AlignAddr(c.in); got != c.want {
			t.Errorf("AlignAddr(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestFetchOutOfRange(t *testing.T) {
	p := NewBuilder("t").Nop().Halt().MustBuild()
	if in := p.Fetch(0); in.Op != isa.Nop {
		t.Errorf("Fetch(0) = %v", in)
	}
	if in := p.Fetch(100); in.Op != isa.Nop {
		t.Errorf("Fetch past end should read as nop, got %v", in)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
	}{
		{"empty", &Program{Name: "e"}},
		{"entry out of range", &Program{Name: "e", Code: []isa.Instruction{{Op: isa.Halt}}, Entry: 5}},
		{"bad op", &Program{Name: "e", Code: []isa.Instruction{{Op: isa.Op(200)}}}},
		{"branch target out of range", &Program{Name: "e", Code: []isa.Instruction{
			{Op: isa.Beq, Imm: 77}, {Op: isa.Halt}}}},
		{"negative branch target", &Program{Name: "e", Code: []isa.Instruction{
			{Op: isa.Jmp, Imm: -1}, {Op: isa.Halt}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate() should fail", c.name)
		}
	}
}

func TestInterpreterArithmetic(t *testing.T) {
	b := NewBuilder("arith")
	b.LoadI(1, 6)
	b.LoadI(2, 7)
	b.Mul(3, 1, 2)   // 42
	b.AddI(3, 3, -2) // 40
	b.ShrI(4, 3, 3)  // 5
	b.Slt(5, 4, 3)   // 1
	b.Halt()
	st := Run(b.MustBuild(), 100)
	if !st.Halted {
		t.Fatal("did not halt")
	}
	if st.Regs[3] != 40 || st.Regs[4] != 5 || st.Regs[5] != 1 {
		t.Errorf("regs = %d %d %d, want 40 5 1", st.Regs[3], st.Regs[4], st.Regs[5])
	}
	if st.Insts != 7 {
		t.Errorf("executed %d instructions, want 7", st.Insts)
	}
}

func TestInterpreterMemoryAndBranches(t *testing.T) {
	b := NewBuilder("membr")
	b.InitMem(0x100, 11)
	b.InitMem(0x108, 22)
	b.LoadI(1, 0x100)
	b.Load(2, 1, 0) // 11
	b.Load(3, 1, 8) // 22
	b.Add(4, 2, 3)  // 33
	b.Store(4, 1, 16)
	taken := b.NewLabel()
	b.Blt(2, 3, taken)
	b.LoadI(5, 999) // skipped
	b.Bind(taken)
	b.Halt()
	st := Run(b.MustBuild(), 100)
	if st.ReadMem(0x110) != 33 {
		t.Errorf("mem[0x110] = %d, want 33", st.ReadMem(0x110))
	}
	if st.Regs[5] == 999 {
		t.Error("branch not taken: r5 overwritten")
	}
	if st.Loads != 2 || st.Stores != 1 {
		t.Errorf("loads=%d stores=%d, want 2/1", st.Loads, st.Stores)
	}
}

func TestInterpreterLoop(t *testing.T) {
	b := NewBuilder("loop")
	b.LoadI(1, 0)
	b.LoadI(2, 10)
	b.LoadI(3, 0)
	loop := b.Here()
	b.Add(3, 3, 1)
	b.AddI(1, 1, 1)
	b.Blt(1, 2, loop)
	b.Halt()
	st := Run(b.MustBuild(), 1000)
	if st.Regs[3] != 45 {
		t.Errorf("sum 0..9 = %d, want 45", st.Regs[3])
	}
}

func TestRunInstructionBudget(t *testing.T) {
	b := NewBuilder("inf")
	l := b.Here()
	b.Jmp(l)
	b.Halt()
	st := Run(b.MustBuild(), 50)
	if st.Halted {
		t.Error("infinite loop should not halt")
	}
	if st.Insts != 50 {
		t.Errorf("executed %d instructions, want 50 (budget)", st.Insts)
	}
}

func TestStepAfterHaltIsNoop(t *testing.T) {
	p := NewBuilder("h").Halt().MustBuild()
	st := NewArchState(p)
	st.Step(p)
	before := *st
	st.Step(p)
	if st.Insts != before.Insts || !st.Halted {
		t.Error("stepping a halted machine should not change state")
	}
}

func TestChecksumDistinguishesStates(t *testing.T) {
	p := NewBuilder("c").Halt().MustBuild()
	a := NewArchState(p)
	b := NewArchState(p)
	if a.Checksum() != b.Checksum() {
		t.Fatal("identical states must have identical checksums")
	}
	b.Regs[7] = 1
	if a.Checksum() == b.Checksum() {
		t.Error("register change not reflected in checksum")
	}
	b.Regs[7] = 0
	b.WriteMem(0x40, 9)
	if a.Checksum() == b.Checksum() {
		t.Error("memory change not reflected in checksum")
	}
}

// Property: the checksum ignores zero-valued memory entries, so writing an
// explicit zero is indistinguishable from an absent entry.
func TestChecksumZeroMemory(t *testing.T) {
	f := func(addr uint64) bool {
		p := NewBuilder("z").Halt().MustBuild()
		a := NewArchState(p)
		b := NewArchState(p)
		b.WriteMem(addr, 0)
		return a.Checksum() == b.Checksum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interpreter memory ops round-trip through alignment.
func TestMemRoundTrip(t *testing.T) {
	f := func(addr uint64, v int64) bool {
		p := NewBuilder("rt").Halt().MustBuild()
		st := NewArchState(p)
		st.WriteMem(addr, v)
		return st.ReadMem(addr) == v && st.ReadMem(AlignAddr(addr)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
