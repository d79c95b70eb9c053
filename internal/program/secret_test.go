package program

import (
	"fmt"
	"sync"
	"testing"

	"doppelganger/internal/isa"
)

const (
	secAddr = uint64(0x1000)
	pubAddr = uint64(0x2000)
	outAddr = uint64(0x3000)
)

// buildLeakProg builds a program that loads a secret and a public word, and
// optionally copies the secret to outAddr.
func buildLeakProg(secret int64, leak bool) *Program {
	b := NewBuilder("taint-test")
	b.SecretWord(secAddr, secret)
	b.InitMem(pubAddr, 7)
	b.LoadI(1, int64(secAddr))
	b.Load(2, 1, 0) // r2 = secret
	b.LoadI(3, int64(pubAddr))
	b.Load(4, 3, 0) // r4 = public
	b.AddI(5, 4, 1) // r5 = public+1
	b.LoadI(6, int64(outAddr))
	if leak {
		b.Store(2, 6, 0) // mem[out] = secret
	} else {
		b.Store(5, 6, 0) // mem[out] = public+1
	}
	b.Halt()
	return b.MustBuild()
}

func TestTaintPropagation(t *testing.T) {
	ts := RunTainted(buildLeakProg(42, true), 1<<20)
	if !ts.Arch.Halted {
		t.Fatal("program did not halt")
	}
	if !ts.RegTaint[2] {
		t.Error("r2 holds the secret but is untainted")
	}
	if ts.RegTaint[4] || ts.RegTaint[5] {
		t.Error("public loads tainted")
	}
	if !ts.MemTaint[outAddr] {
		t.Error("secret stored to outAddr but word untainted")
	}
	if !ts.MemTaint[secAddr] {
		t.Error("labeled secret word lost its taint")
	}
	if ts.BranchOnSecret || ts.AddrOnSecret {
		t.Error("straight-line data copy flagged as non-constant-time")
	}
	if !ts.ConstantTime() {
		t.Error("ConstantTime false for straight-line program")
	}
}

// PubChecksum must be secret-independent exactly when no secret reaches
// public state.
func TestPubChecksumSecretIndependence(t *testing.T) {
	cleanA := RunTainted(buildLeakProg(42, false), 1<<20)
	cleanB := RunTainted(buildLeakProg(99, false), 1<<20)
	if cleanA.PubChecksum() != cleanB.PubChecksum() {
		t.Error("PubChecksum differs across secrets with no architectural leak")
	}
	// The full checksum must still differ (the secret word itself differs).
	if cleanA.Arch.Checksum() == cleanB.Arch.Checksum() {
		t.Error("full Checksum identical across different secrets — test is vacuous")
	}

	leakA := RunTainted(buildLeakProg(42, true), 1<<20)
	leakB := RunTainted(buildLeakProg(99, true), 1<<20)
	// The leaked copy is tainted, so PubChecksum stays equal — the taint
	// tracker correctly classifies the copy as secret-derived...
	if leakA.PubChecksum() != leakB.PubChecksum() {
		t.Error("tainted copy included in PubChecksum")
	}
	// ...and MemTaint records where it went.
	if !leakA.MemTaint[outAddr] {
		t.Error("leak destination not tainted")
	}
}

// Overwriting a tainted word with a public value declassifies it.
func TestDeclassifyByOverwrite(t *testing.T) {
	b := NewBuilder("declassify")
	b.SecretWord(secAddr, 5)
	b.LoadI(1, int64(secAddr))
	b.Load(2, 1, 0)  // r2 = secret
	b.LoadI(3, 1234) // public constant
	b.Store(3, 1, 0) // overwrite the secret word with a public value
	b.LoadI(2, 0)    // overwrite the secret register too
	b.Halt()
	p := b.MustBuild()
	ts := RunTainted(p, 1<<20)
	if ts.MemTaint[secAddr] {
		t.Error("public overwrite did not clear word taint")
	}
	if ts.RegTaint[2] {
		t.Error("LoadI did not clear register taint")
	}
	if len(ts.MemTaint) != 0 {
		t.Errorf("residual taint: %v", ts.MemTaint)
	}
}

// Branching on a secret and addressing by a secret must set the
// constant-time violation flags.
func TestNonConstantTimeFlags(t *testing.T) {
	b := NewBuilder("branch-on-secret")
	b.SecretWord(secAddr, 1)
	b.LoadI(1, int64(secAddr))
	b.Load(2, 1, 0)
	b.LoadI(3, 0)
	done := b.NewLabel()
	b.Beq(2, 3, done)
	b.AddI(3, 3, 1)
	b.Bind(done)
	b.Halt()
	ts := RunTainted(b.MustBuild(), 1<<20)
	if !ts.BranchOnSecret {
		t.Error("branch on secret not flagged")
	}
	if ts.ConstantTime() {
		t.Error("ConstantTime true despite secret branch")
	}

	b2 := NewBuilder("addr-on-secret")
	b2.SecretWord(secAddr, 8)
	b2.LoadI(1, int64(secAddr))
	b2.Load(2, 1, 0)
	b2.Load(3, 2, int64(pubAddr)) // address = pub + secret
	b2.Halt()
	ts2 := RunTainted(b2.MustBuild(), 1<<20)
	if !ts2.AddrOnSecret {
		t.Error("secret-indexed load not flagged")
	}
}

// RunTainted's architectural state must match the plain interpreter.
func TestRunTaintedMatchesRun(t *testing.T) {
	p := buildLeakProg(42, true)
	ref := Run(p, 1<<20)
	ts := RunTainted(p, 1<<20)
	if ref.Checksum() != ts.Arch.Checksum() {
		t.Error("RunTainted architectural state diverges from Run")
	}
	if ref.Insts != ts.Arch.Insts {
		t.Errorf("Insts mismatch: %d vs %d", ref.Insts, ts.Arch.Insts)
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Base: 0x100, Len: 16}
	for _, tc := range []struct {
		addr uint64
		want bool
	}{
		{0x0f8, false}, {0x100, true}, {0x108, true}, {0x110, false},
		{0x104, true}, // unaligned address inside the region
	} {
		if got := r.Contains(tc.addr); got != tc.want {
			t.Errorf("Contains(0x%x) = %v, want %v", tc.addr, got, tc.want)
		}
	}
	if isa.NumRegs < 8 {
		t.Fatal("tests assume at least 8 registers")
	}
}

// TaintSummary must equal a fresh RunTainted summary whatever counts it is
// asked for, in any order and from any number of goroutines at once: on a
// program whose diagnosis depends on the count, on a secret-free program
// and on a nil one.
func TestTaintSummaryMatchesRunTainted(t *testing.T) {
	b := NewBuilder("addr-on-secret")
	b.SecretWord(secAddr, 8)
	b.LoadI(1, int64(secAddr))
	b.Load(2, 1, 0)
	b.Store(2, 1, 8)
	b.Load(3, 2, int64(pubAddr)) // address = pub + secret, the fourth instruction
	b.Halt()
	progs := map[string]*Program{
		"secret":      b.MustBuild(),
		"secret-free": buildLeakProg(42, false),
		"nil":         nil,
	}
	counts := []uint64{1 << 20, 2, 4, 4, 5, 0, 1 << 20, 3}
	want := func(p *Program, n uint64) TaintSummary {
		if p == nil {
			p = new(Program)
		}
		return RunTainted(p, n).Summary()
	}
	if s3, s4 := want(progs["secret"], 3), want(progs["secret"], 4); s3 == s4 {
		t.Fatalf("the secret program's summary does not change with the count: %+v", s3)
	}
	for name, p := range progs {
		for _, n := range counts {
			if got, want := p.TaintSummary(n), want(p, n); got != want {
				t.Errorf("%s, %d instructions: TaintSummary %+v, RunTainted %+v", name, n, got, want)
			}
		}
	}

	p := buildLeakProg(7, true)
	refs := make(map[uint64]TaintSummary, len(counts))
	for _, n := range counts {
		refs[n] = want(p, n)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(counts))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range counts {
				// Half the goroutines ask for one count throughout, half walk
				// the counts, so hits and recomputations interleave.
				n := counts[(g%2)*(i+g)%len(counts)]
				if got := p.TaintSummary(n); got != refs[n] {
					errs <- fmt.Sprintf("goroutine %d, %d instructions: %+v, want %+v", g, n, got, refs[n])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
