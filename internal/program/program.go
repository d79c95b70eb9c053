// Package program represents executable programs for the simulator: the
// static instruction stream, initial architectural state, and a functional
// reference interpreter used as the correctness oracle for the out-of-order
// pipeline.
package program

import (
	"fmt"

	"doppelganger/internal/isa"
)

// WordSize is the memory access granularity in bytes. All loads and stores
// operate on naturally aligned 64-bit words; effective addresses are aligned
// down to a word boundary, mirroring the aligned accesses the workloads emit.
const WordSize = 8

// AlignAddr aligns a byte address down to a word boundary.
func AlignAddr(addr uint64) uint64 { return addr &^ (WordSize - 1) }

// Program is a static instruction stream plus initial state. The zero value
// is an empty program; use Builder or Assemble to construct one.
//
// A Program must not change once its image has been hashed (ImageHash,
// which every engine job key calls) or its taint summarised (TaintSummary,
// which every observed run calls): the state saved on the first call would
// go on describing the old program. Build or edit a program fully, then
// share it by pointer; it is never copied by value.
type Program struct {
	// Code is the instruction memory, indexed by PC.
	Code []isa.Instruction
	// Entry is the initial program counter.
	Entry uint64
	// InitRegs holds initial architectural register values.
	InitRegs [isa.NumRegs]int64
	// InitMem is the initial data memory image (word-aligned byte address
	// to 64-bit value).
	InitMem map[uint64]int64
	// Secrets labels the memory regions whose initial contents are secret.
	// The contract oracle (sim.Observe, internal/leakcheck) seeds taint
	// tracking from these labels; execution is unaffected.
	Secrets []Region
	// Name labels the program in statistics output.
	Name string

	// image is the saved hash state of the canonical image; see ImageHash.
	image imageHash
	// taint is the last taint summary; see TaintSummary.
	taint taintMemo
}

// Fetch returns the instruction at pc. PCs outside the code region read as
// Nop, so wrong-path fetch beyond the program end is harmless (the real
// machine would fetch whatever bytes are there; Nops keep the model simple
// without hiding any mechanism under study).
func (p *Program) Fetch(pc uint64) isa.Instruction {
	if pc < uint64(len(p.Code)) {
		return p.Code[pc]
	}
	return isa.Instruction{Op: isa.Nop}
}

// Validate checks static well-formedness: defined opcodes, in-range
// registers, and branch targets inside the code region.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("program %q: empty code", p.Name)
	}
	if p.Entry >= uint64(len(p.Code)) {
		return fmt.Errorf("program %q: entry %d outside code (len %d)", p.Name, p.Entry, len(p.Code))
	}
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("program %q pc=%d: invalid op %d", p.Name, pc, uint8(in.Op))
		}
		if in.HasDst() && !in.Dst.Valid() {
			return fmt.Errorf("program %q pc=%d: invalid dst %d", p.Name, pc, uint8(in.Dst))
		}
		srcs, n := in.Sources()
		for i := 0; i < n; i++ {
			if !srcs[i].Valid() {
				return fmt.Errorf("program %q pc=%d: invalid src %d", p.Name, pc, uint8(srcs[i]))
			}
		}
		if in.IsBranch() {
			if in.Imm < 0 || in.Imm >= int64(len(p.Code)) {
				return fmt.Errorf("program %q pc=%d: branch target %d outside code (len %d)",
					p.Name, pc, in.Imm, len(p.Code))
			}
		}
	}
	return nil
}

// ArchState is the architectural machine state evolved by the reference
// interpreter (and reached by the pipeline at commit).
type ArchState struct {
	Regs [isa.NumRegs]int64
	Mem  map[uint64]int64
	PC   uint64
	// Halted is set once a Halt instruction has been executed.
	Halted bool
	// Insts counts architecturally executed (committed) instructions,
	// including the Halt itself.
	Insts uint64
	// Loads and Stores count architecturally executed memory operations.
	Loads  uint64
	Stores uint64
}

// NewArchState initialises architectural state from the program image.
func NewArchState(p *Program) *ArchState {
	st := &ArchState{
		Mem: make(map[uint64]int64, len(p.InitMem)),
		PC:  p.Entry,
	}
	st.Regs = p.InitRegs
	for a, v := range p.InitMem {
		st.Mem[AlignAddr(a)] = v
	}
	return st
}

// ReadMem returns the word at the (aligned) address; absent addresses read
// as zero, matching zero-initialised memory.
func (st *ArchState) ReadMem(addr uint64) int64 { return st.Mem[AlignAddr(addr)] }

// WriteMem stores the word at the (aligned) address.
func (st *ArchState) WriteMem(addr uint64, v int64) { st.Mem[AlignAddr(addr)] = v }

// Step executes one instruction, updating state. It returns the executed
// instruction. Stepping a halted machine is a no-op.
func (st *ArchState) Step(p *Program) isa.Instruction {
	if st.Halted {
		return isa.Instruction{Op: isa.Halt}
	}
	in := p.Fetch(st.PC)
	next := st.PC + 1
	switch in.Op.Kind() {
	case isa.KindNop:
	case isa.KindALU:
		a := st.Regs[in.Src1]
		b := st.Regs[in.Src2]
		st.Regs[in.Dst] = isa.EvalALU(in.Op, a, b, in.Imm)
	case isa.KindLoad:
		addr := uint64(st.Regs[in.Src1] + in.Imm)
		st.Regs[in.Dst] = st.ReadMem(addr)
		st.Loads++
	case isa.KindStore:
		addr := uint64(st.Regs[in.Src1] + in.Imm)
		st.WriteMem(addr, st.Regs[in.Src2])
		st.Stores++
	case isa.KindBranch:
		if isa.BranchTaken(in.Op, st.Regs[in.Src1], st.Regs[in.Src2]) {
			next = uint64(in.Imm)
		}
	case isa.KindJump:
		next = uint64(in.Imm)
	case isa.KindHalt:
		st.Halted = true
	}
	st.PC = next
	st.Insts++
	return in
}

// Run executes the program functionally until Halt or maxInsts instructions,
// whichever comes first, and returns the final state.
func Run(p *Program, maxInsts uint64) *ArchState {
	st := NewArchState(p)
	for !st.Halted && st.Insts < maxInsts {
		st.Step(p)
	}
	return st
}

// Checksum produces an order-independent digest of registers and memory,
// used to compare pipeline results against the reference interpreter.
func (st *ArchState) Checksum() uint64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	mix := func(h, v uint64) uint64 {
		// FNV-style mix of each 64-bit quantity.
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
		return h
	}
	h := uint64(offset)
	for i, v := range st.Regs {
		h = mix(h, uint64(i))
		h = mix(h, uint64(v))
	}
	// Memory is summed commutatively so map iteration order is irrelevant.
	var memSum uint64
	for a, v := range st.Mem {
		if v == 0 {
			continue // zero values are indistinguishable from absent entries
		}
		memSum += mix(mix(offset, a), uint64(v))
	}
	return mix(h, memSum)
}
