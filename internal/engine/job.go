// Package engine is a job-based execution engine for simulation runs: it
// turns the simulator into a batch platform with a bounded worker pool, an
// in-memory LRU result cache keyed by a canonical fingerprint of each run,
// in-flight deduplication, context cancellation, per-job timeouts and
// aggregate throughput statistics. The paper harness and the doppeld
// service both drive their experiment matrices through it.
package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"doppelganger/sim"
)

// Job is one simulation run: a program under a configuration. Two jobs with
// the same Key are interchangeable — the simulator is deterministic, so the
// engine may serve either from a cached result of the other.
type Job struct {
	// Program is the program image to simulate (required).
	Program *sim.Program
	// Config selects the scheme, address prediction, run bounds and
	// optional core overrides.
	Config sim.Config
	// Checkpoint, when non-nil, makes the run a warm start: the core is
	// rebuilt from the checkpoint's captured state instead of the
	// program's initial state, and Config.MaxInsts counts total committed
	// instructions including the checkpoint's warmup. The checkpoint's
	// digest is part of the cache key — a warm-started run and a cold run
	// are different simulations and must never share a cached result.
	Checkpoint *sim.Checkpoint
	// Observe, when non-empty, requests a contract observation alongside
	// the result: the engine enables trace capture for the run and fills
	// an Observation for the named clauses, returned by SubmitObserved and
	// RunBatchObserved. The canonical clause set is part of the cache key —
	// an observed run carries trace digests a blind run never captured, so
	// the two must not share a cached entry.
	Observe []sim.Clause
	// Timeout bounds this job's wall-clock execution; zero uses the
	// engine's default (which may be none). Timeouts do not contribute
	// to the cache key — they are an execution detail, not an identity.
	Timeout time.Duration
}

// Key canonically identifies a job: a hex digest over the full program
// image and the fully-resolved configuration. Any change to an instruction,
// an initial register or memory word, a run bound, or any core-config field
// (including those reached through Config.Core) produces a different key.
type Key string

// Key derives the job's canonical cache key.
func (j Job) Key() Key {
	h := sha256.New()
	fingerprintProgram(h, j.Program)
	fingerprintConfig(h, j.Config)
	if j.Checkpoint != nil {
		// Folded in only when present, so every pre-checkpoint key (and the
		// result tiers stored under them) is unchanged.
		fmt.Fprintf(h, "|ckpt|%s|", j.Checkpoint.Digest())
	}
	if len(j.Observe) > 0 {
		// Same only-when-present discipline as Checkpoint: blind jobs keep
		// their historical keys.
		io.WriteString(h, "|obs|")
		for _, c := range sim.CanonicalClauses(j.Observe) {
			io.WriteString(h, c.String())
			io.WriteString(h, ",")
		}
		io.WriteString(h, "|")
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// fingerprintProgram writes a canonical encoding of the program image:
// name, entry point, every instruction, initial registers, and the initial
// memory image in sorted address order (map iteration order must not leak
// into the key).
func fingerprintProgram(w io.Writer, p *sim.Program) {
	if p == nil {
		io.WriteString(w, "prog|nil")
		return
	}
	fmt.Fprintf(w, "prog|%s|entry=%d|code=%d|", p.Name, p.Entry, len(p.Code))
	addrs := make([]uint64, 0, len(p.InitMem))
	for a := range p.InitMem {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	// The image is encoded as little-endian 64-bit words (five per
	// instruction, then the registers, then address/value pairs) into one
	// fixed-size buffer written out whenever it fills: few interface calls,
	// and memory that does not grow with the image.
	var buf [keyChunk]byte
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

// keyChunk is the size of fingerprintProgram's encoding buffer, a
// multiple of the 8-byte word.
const keyChunk = 32 << 10

// fingerprintConfig writes a canonical encoding of the run configuration.
// The core configuration is resolved first (nil Core means the default with
// Scheme and AddressPrediction applied), so a job that spells the default
// out explicitly and one that leaves Core nil hash identically, and every
// core field participates in the key. JSON marshalling of a struct is
// deterministic in Go (declaration order), which makes it a convenient
// canonical encoding.
func fingerprintConfig(w io.Writer, cfg sim.Config) {
	eff := cfg.ResolvedCore()
	enc, err := json.Marshal(eff)
	if err != nil {
		// Config structs are plain exported data; this cannot fail.
		panic(fmt.Sprintf("engine: config fingerprint: %v", err))
	}
	fmt.Fprintf(w, "|cfg|insts=%d|cycles=%d|", cfg.MaxInsts, cfg.MaxCycles)
	w.Write(enc)
}
