package program

import (
	"fmt"
	"sync"

	"doppelganger/internal/isa"
)

// Region is a half-open byte range [Base, Base+Len) of data memory. Regions
// label memory that holds secrets: the contract oracle treats the initial
// contents of every labeled word as secret and tracks how secrets flow
// through architectural execution.
type Region struct {
	Base uint64
	Len  uint64
}

// Contains reports whether the (aligned) word at addr overlaps the region.
func (r Region) Contains(addr uint64) bool {
	a := AlignAddr(addr)
	return a+WordSize > r.Base && a < r.Base+r.Len
}

// String renders the region as [base,base+len).
func (r Region) String() string {
	return fmt.Sprintf("[0x%x,0x%x)", r.Base, r.Base+r.Len)
}

// TaintState is the result of running the taint-tracking reference
// interpreter: the final architectural state plus, for every register and
// memory word, whether its value is secret-derived. Taint seeds from the
// program's Secrets regions and propagates through data flow: an ALU result
// is tainted when any source is, a load result when the loaded word or the
// address register is, a stored word when the stored value or the address
// register is. Overwriting a word with a public value clears its taint
// (declassification by overwrite, as in ProSpeCT).
type TaintState struct {
	Arch *ArchState
	// RegTaint[i] is true when register i's final value is secret-derived.
	RegTaint [isa.NumRegs]bool
	// MemTaint holds the (aligned) addresses of secret-derived words.
	MemTaint map[uint64]bool
	// BranchOnSecret is set when any committed branch predicate read a
	// tainted register: the program's architectural control flow depends on
	// a secret, so it is not constant-time.
	BranchOnSecret bool
	// AddrOnSecret is set when any committed load or store computed its
	// address from a tainted register: the program's architectural memory
	// trace depends on a secret.
	AddrOnSecret bool
}

// ConstantTime reports whether architectural control flow and the
// architectural memory-address trace are independent of the labeled
// secrets — the classic constant-time programming discipline.
func (t *TaintState) ConstantTime() bool {
	return !t.BranchOnSecret && !t.AddrOnSecret
}

// RunTainted executes the program functionally until Halt or maxInsts
// instructions — like Run — while tracking secret taint from the program's
// Secrets labels.
func RunTainted(p *Program, maxInsts uint64) *TaintState {
	t := &TaintState{
		Arch:     NewArchState(p),
		MemTaint: make(map[uint64]bool, len(p.Secrets)),
	}
	for _, r := range p.Secrets {
		for a := AlignAddr(r.Base); a < r.Base+r.Len; a += WordSize {
			t.MemTaint[a] = true
		}
	}
	st := t.Arch
	for !st.Halted && st.Insts < maxInsts {
		in := p.Fetch(st.PC)
		srcs, n := in.Sources()
		var srcTaint bool
		for i := 0; i < n; i++ {
			srcTaint = srcTaint || t.RegTaint[srcs[i]]
		}
		switch in.Op.Kind() {
		case isa.KindALU:
			t.RegTaint[in.Dst] = srcTaint
		case isa.KindLoad:
			addr := AlignAddr(uint64(st.Regs[in.Src1] + in.Imm))
			if t.RegTaint[in.Src1] {
				t.AddrOnSecret = true
			}
			t.RegTaint[in.Dst] = t.MemTaint[addr] || t.RegTaint[in.Src1]
		case isa.KindStore:
			addr := AlignAddr(uint64(st.Regs[in.Src1] + in.Imm))
			if t.RegTaint[in.Src1] {
				t.AddrOnSecret = true
			}
			if w := t.RegTaint[in.Src2] || t.RegTaint[in.Src1]; w {
				t.MemTaint[addr] = true
			} else {
				delete(t.MemTaint, addr)
			}
		case isa.KindBranch:
			if srcTaint {
				t.BranchOnSecret = true
			}
		}
		st.Step(p)
	}
	return t
}

// PubChecksum digests the final architectural state visible to an observer
// who cannot read secrets: the same order-independent FNV fold as
// ArchState.Checksum, but skipping every tainted register and memory word.
// Two runs of a program that differ only in labeled secret values produce
// equal PubChecksums exactly when no secret leaked into public
// architectural state.
func (t *TaintState) PubChecksum() uint64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	mix := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
		return h
	}
	h := uint64(offset)
	for i, v := range t.Arch.Regs {
		if t.RegTaint[i] {
			continue
		}
		h = mix(h, uint64(i))
		h = mix(h, uint64(v))
	}
	var memSum uint64
	for a, v := range t.Arch.Mem {
		if v == 0 || t.MemTaint[a] {
			continue
		}
		memSum += mix(mix(offset, a), uint64(v))
	}
	return mix(h, memSum)
}

// TaintSummary is what the contract oracle reads from a taint run: the
// public architectural digest and the constant-time diagnosis.
type TaintSummary struct {
	PubChecksum    uint64
	BranchOnSecret bool
	AddrOnSecret   bool
}

// Summary reduces the taint state to its TaintSummary.
func (t *TaintState) Summary() TaintSummary {
	return TaintSummary{
		PubChecksum:    t.PubChecksum(),
		BranchOnSecret: t.BranchOnSecret,
		AddrOnSecret:   t.AddrOnSecret,
	}
}

// taintMemo is a program's last taint summary and the instruction count it
// was run to.
type taintMemo struct {
	mu    sync.Mutex
	ok    bool
	insts uint64
	sum   TaintSummary
}

// TaintSummary returns RunTainted(p, maxInsts).Summary(). The program saves
// the last summary with its count, so the configurations of a sweep, which
// all commit the same count of one program, interpret it once between
// them. It is safe for concurrent use: a caller waits for a summary another
// is computing rather than run the interpreter again. A nil program
// summarises as an empty one.
func (p *Program) TaintSummary(maxInsts uint64) TaintSummary {
	if p == nil {
		return RunTainted(new(Program), maxInsts).Summary()
	}
	m := &p.taint
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.ok || m.insts != maxInsts {
		m.sum = RunTainted(p, maxInsts).Summary()
		m.ok, m.insts = true, maxInsts
	}
	return m.sum
}
