package pipeline

import (
	"fmt"
	"testing"

	"doppelganger/internal/isa"
	"doppelganger/internal/program"
	"doppelganger/internal/secure"
	"doppelganger/internal/workload"
)

// fuzzRNG is a deterministic generator for reproducible random programs.
type fuzzRNG uint64

func (r *fuzzRNG) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = fuzzRNG(x)
	return x * 0x2545f4914f6cdd1d
}

func (r *fuzzRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randomProgram builds a terminating random program: an outer counted loop
// whose body is a random mix of ALU ops, masked loads and stores into a
// bounded region, and forward data-dependent branches. Every construct the
// pipeline supports is exercised: dependent loads, store-to-load
// forwarding, aliasing, 50/50 and skewed branches, multiply/divide
// latencies.
func randomProgram(seed uint64, bodyLen, iters int) *program.Program {
	r := fuzzRNG(seed)
	b := program.NewBuilder(fmt.Sprintf("fuzz-%d", seed))
	const (
		memBase  = 0x10000
		memWords = 256 // bounded region keeps addresses valid
	)
	for i := 0; i < memWords; i++ {
		b.InitMem(memBase+uint64(i)*8, int64(r.intn(1000))-500)
	}
	// r1..r11: scratch; r12: loop counter; r13: limit; r14: addr mask;
	// r15: memBase.
	for reg := isa.Reg(1); reg <= 11; reg++ {
		b.InitReg(reg, int64(r.intn(64)))
	}
	b.LoadI(12, 0)
	b.LoadI(13, int64(iters))
	b.LoadI(14, int64(memWords-1))
	b.LoadI(15, memBase)

	scratch := func() isa.Reg { return isa.Reg(1 + r.intn(11)) }

	loop := b.Here()
	var pendingJoin *program.Label
	joinAt := -1
	for i := 0; i < bodyLen; i++ {
		if pendingJoin != nil && i >= joinAt {
			b.Bind(pendingJoin)
			pendingJoin = nil
		}
		switch r.intn(12) {
		case 0, 1, 2: // ALU reg-reg
			ops := []isa.Op{isa.Add, isa.Sub, isa.Mul, isa.Xor, isa.And, isa.Or, isa.Slt, isa.Div, isa.Shl, isa.Shr}
			b.Op3(ops[r.intn(len(ops))], scratch(), scratch(), scratch())
		case 3, 4: // ALU immediate
			ops := []isa.Op{isa.AddI, isa.MulI, isa.AndI, isa.ShlI, isa.ShrI}
			b.OpI(ops[r.intn(len(ops))], scratch(), scratch(), int64(r.intn(16)))
		case 5: // constant
			b.LoadI(scratch(), int64(r.intn(200))-100)
		case 6, 7, 8: // load via masked address
			base := scratch()
			addrReg := scratch()
			b.And(addrReg, base, 14) // bound the index
			b.ShlI(addrReg, addrReg, 3)
			b.Add(addrReg, addrReg, 15)
			b.Load(scratch(), addrReg, int64(r.intn(4))*8)
		case 9: // store via masked address
			base := scratch()
			addrReg := scratch()
			b.And(addrReg, base, 14)
			b.ShlI(addrReg, addrReg, 3)
			b.Add(addrReg, addrReg, 15)
			b.Store(scratch(), addrReg, 0)
		case 10, 11: // forward data-dependent branch over a short span
			if pendingJoin == nil {
				pendingJoin = b.NewLabel()
				joinAt = i + 1 + r.intn(4)
				ops := []isa.Op{isa.Beq, isa.Bne, isa.Blt, isa.Bge}
				b.Branch(ops[r.intn(len(ops))], scratch(), scratch(), pendingJoin)
			} else {
				b.Nop()
			}
		}
	}
	if pendingJoin != nil {
		b.Bind(pendingJoin)
	}
	b.AddI(12, 12, 1)
	b.Blt(12, 13, loop)
	b.Store(1, 15, 0)
	b.Halt()
	return b.MustBuild()
}

// fuzzSchemes is the scheme set both fuzz tests cover: the whole registry,
// extensions included (TestRegistryComplete holds it to that).
var fuzzSchemes = secure.AllSchemes()

// TestFuzzAgainstInterpreter is the correctness anchor: for many random
// programs, the out-of-order core must reach exactly the architectural
// state of the functional interpreter under every registry scheme, with
// and without doppelganger loads.
func TestFuzzAgainstInterpreter(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 1; seed <= seeds; seed++ {
		p := randomProgram(uint64(seed)*0x9e3779b9, 12+seed%14, 60+seed*7)
		ref := program.Run(p, 5_000_000)
		if !ref.Halted {
			t.Fatalf("seed %d: reference did not halt", seed)
		}
		refSum := ref.Checksum()
		for _, scheme := range fuzzSchemes {
			for _, ap := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.AddressPrediction = ap
				c, err := New(cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Run(0, 200_000_000); err != nil {
					t.Fatalf("seed %d %v ap=%v: %v", seed, scheme, ap, err)
				}
				got := c.ArchState()
				if got.Insts != ref.Insts {
					t.Errorf("seed %d %v ap=%v: committed %d, reference %d",
						seed, scheme, ap, got.Insts, ref.Insts)
				}
				if got.Checksum() != refSum {
					t.Errorf("seed %d %v ap=%v: architectural state mismatch", seed, scheme, ap)
				}
				if got.Loads != ref.Loads || got.Stores != ref.Stores {
					t.Errorf("seed %d %v ap=%v: loads/stores %d/%d, reference %d/%d",
						seed, scheme, ap, got.Loads, got.Stores, ref.Loads, ref.Stores)
				}
			}
		}
	}
}

// TestFuzzSmallWindows re-runs a subset of random programs on a tiny
// machine (small ROB/IQ/LQ/SQ, one load port) to stress structural-hazard
// paths: stalls, full queues, and squash at every boundary, under every
// registry scheme. SelfCheck runs the invariant checker every cycle,
// Cleanup's journal clause included.
func TestFuzzSmallWindows(t *testing.T) {
	fuzzSmallMachine(t, smallMachine())
}

// TestFuzzSmallWindowsFullMSHRs is TestFuzzSmallWindows on a machine whose
// 8-line L1 has two MSHRs, so loads spend much of the run turned away by a
// full MSHR file and parked on it: SelfCheck then validates every park
// (still rejected, squashed, woken by a fill) and the stall accounting
// behind it, and Cleanup's journal-depth bound under long stalls. The
// window is twice TestFuzzSmallWindows' so that STT's taint stalls, which
// need a dependent load behind an unresolved branch, park too.
func TestFuzzSmallWindowsFullMSHRs(t *testing.T) {
	cfg := smallMachine()
	cfg.ROBSize = 32
	cfg.IQSize = 12
	cfg.LQSize = 8
	cfg.SQSize = 4
	cfg.Memory.L1D.SizeBytes = 512
	cfg.Memory.L1D.Ways = 2
	cfg.Memory.L1MSHRs = 2
	parks := fuzzSmallMachine(t, cfg)
	if parks[stallMSHR] == 0 || parks[stallTaint] == 0 {
		t.Fatalf("parks by kind %v: the machine never parked a load on a full MSHR file or a taint root", parks)
	}
}

// smallMachine is a tiny core (small ROB/IQ/LQ/SQ, one load port) with
// the invariant checker on.
func smallMachine() Config {
	cfg := DefaultConfig()
	cfg.ROBSize = 16
	cfg.IQSize = 8
	cfg.LQSize = 4
	cfg.SQSize = 3
	cfg.LoadPorts = 1
	cfg.DecodeWidth = 2
	cfg.IssueWidth = 2
	cfg.CommitWidth = 2
	cfg.SelfCheck = true
	return cfg
}

// fuzzSmallMachine runs ten random programs on the machine under every
// registry scheme ±AP against the interpreter, and counts the cycles the
// end of which found a load parked on a stall, by kind.
func fuzzSmallMachine(t *testing.T, machine Config) (parks [stallTaint + 1]int) {
	t.Helper()
	for seed := 1; seed <= 10; seed++ {
		p := randomProgram(uint64(seed)*31337, 10+seed, 50)
		ref := program.Run(p, 5_000_000)
		refSum := ref.Checksum()
		for _, scheme := range fuzzSchemes {
			for _, ap := range []bool{false, true} {
				cfg := machine
				cfg.Scheme = scheme
				cfg.AddressPrediction = ap
				c, err := New(cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				for !c.Halted() {
					if c.Cycle() >= 200_000_000 {
						t.Fatalf("seed %d %v ap=%v: did not halt", seed, scheme, ap)
					}
					c.Step()
					for off := 0; off < c.lq.len(); off++ {
						parks[c.lqEntries[c.lq.at(off)].stall]++
					}
				}
				if c.ArchState().Checksum() != refSum {
					t.Errorf("seed %d %v ap=%v: state mismatch on small machine", seed, scheme, ap)
				}
			}
		}
	}
	return parks
}

// TestSelfCheckKernelsFullMSHRs runs the MSHR-bound kernels under every
// registry scheme ±AP with the invariant checker on. Their strided streams
// keep a four-entry MSHR file full while prefetches and committed stores
// fill the very lines parked loads wait on, and Cleanup's rollbacks free
// MSHRs under them: the wakes the random programs above rarely need.
func TestSelfCheckKernelsFullMSHRs(t *testing.T) {
	insts := uint64(2000)
	if testing.Short() {
		insts = 500
	}
	for _, name := range []string{"stream", "sparse_spmv", "scan_match"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no %s workload", name)
		}
		p := w.Build(workload.ScaleTest)
		var rejected uint64
		for _, scheme := range fuzzSchemes {
			for _, ap := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.AddressPrediction = ap
				cfg.Memory.L1MSHRs = 4
				cfg.SelfCheck = true
				c, err := New(cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Run(insts, 10_000_000); err != nil {
					t.Fatalf("%s %v ap=%v: %v", name, scheme, ap, err)
				}
				rejected += c.hier.RejectedMSHR
			}
		}
		if rejected == 0 {
			t.Errorf("%s: the MSHR file never filled", name)
		}
	}
}
