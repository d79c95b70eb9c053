package program

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"slices"
	"sync"
)

// imageHash is a program's saved SHA-256 state after absorbing its canonical
// image encoding: about 108 bytes, filled once by the first ImageHash call.
type imageHash struct {
	once  sync.Once
	state []byte
}

// ImageHash returns a SHA-256 hash that has already absorbed the program's
// canonical image encoding: name, entry point, every instruction, the
// initial registers, and the initial memory image in address order. Callers
// append their own fields and call Sum; the engine's job keys are built this
// way.
//
// The first call encodes and hashes the image and saves the hash state on
// the program; every later call, from any goroutine, resumes from that
// state, so the image is hashed once per Program. A Program must therefore
// not change once ImageHash has been called. A nil program hashes as a fixed
// marker.
func (p *Program) ImageHash() hash.Hash {
	h := sha256.New()
	if p == nil {
		io.WriteString(h, "prog|nil")
		return h
	}
	p.image.once.Do(func() {
		p.writeImage(h)
		state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic(fmt.Sprintf("program: save image hash: %v", err))
		}
		p.image.state = state
	})
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(p.image.state); err != nil {
		panic(fmt.Sprintf("program: resume image hash: %v", err))
	}
	return h
}

// writeImage writes the canonical image encoding. Memory is written in
// sorted address order, so map iteration order never reaches the hash.
func (p *Program) writeImage(w io.Writer) {
	fmt.Fprintf(w, "prog|%s|entry=%d|code=%d|", p.Name, p.Entry, len(p.Code))
	addrs := make([]uint64, 0, len(p.InitMem))
	for a := range p.InitMem {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	// Little-endian 64-bit words (five per instruction, then the registers,
	// then address/value pairs) go through one fixed-size buffer written out
	// whenever it fills: few interface calls, and memory that does not grow
	// with the image.
	var buf [imageChunk]byte
	b := buf[:0]
	put := func(v uint64) {
		if len(b) == len(buf) {
			w.Write(b)
			b = buf[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, in := range p.Code {
		put(uint64(in.Op))
		put(uint64(in.Dst))
		put(uint64(in.Src1))
		put(uint64(in.Src2))
		put(uint64(in.Imm))
	}
	for _, r := range p.InitRegs {
		put(uint64(r))
	}
	for _, a := range addrs {
		put(a)
		put(uint64(p.InitMem[a]))
	}
	w.Write(b)
}

// imageChunk is the size of writeImage's buffer, a multiple of the 8-byte
// word.
const imageChunk = 32 << 10
