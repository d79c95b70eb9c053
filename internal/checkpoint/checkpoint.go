// Package checkpoint implements serializable, versioned, checksum-verified
// snapshots of complete simulation state. A checkpoint captures everything
// a quiescent core carries forward — architectural registers and memory,
// the cache hierarchy with MSHRs and LRU state, and every predictor table —
// plus the program image it was warmed on, so a checkpoint file is
// self-contained: it can be restored standalone, shipped to a cluster
// worker, or forked into every scheme × address-prediction variant of the
// evaluation matrix without replaying warmup.
//
// The on-disk format (see file.go) is framed by internal/recfile, the code
// the result store and the campaign corpus share: a magic number, an
// explicit format version that is checked before anything else, and a CRC
// per section so corruption is refused with a clear error instead of
// deserialized into a subtly wrong core.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"doppelganger/internal/isa"
	"doppelganger/internal/pipeline"
	"doppelganger/internal/program"
)

// Meta describes how a checkpoint was produced and embeds the program it
// is a checkpoint *of*. Compatibility checks compare the embedded code and
// entry point only — not initial registers or memory, which the captured
// state supersedes (two programs differing only in initial memory, e.g.
// leakcheck's secret variants, each get their own checkpoint).
type Meta struct {
	// ProgramName, ProgramEntry and Code identify and embed the program.
	ProgramName  string            `json:"program_name"`
	ProgramEntry uint64            `json:"program_entry"`
	Code         []isa.Instruction `json:"code"`

	// WarmScheme and WarmAP record the configuration the warmup ran under;
	// WarmupInsts is the commit count the snapshot was requested at (the
	// drain may commit a few more). These are provenance, not identity:
	// the digest covers them, so checkpoints warmed differently never
	// collide, but restore does not constrain them.
	WarmScheme  string `json:"warm_scheme"`
	WarmAP      bool   `json:"warm_ap,omitempty"`
	WarmupInsts uint64 `json:"warmup_insts"`

	// WarmConfig is the full core configuration of the warming run.
	// Restore-time structural checks happen component-by-component against
	// the captured tables; this is recorded so a checkpoint file is
	// self-describing.
	WarmConfig pipeline.Config `json:"warm_config"`
}

// Checkpoint is an immutable captured simulation state. Build one with New
// (from a live capture) or Decode/ReadFile (from an encoding). The
// canonical encoding and its digest are computed once, on the first
// Encode, Digest or Equal call, so a checkpoint that is only restored
// never pays for them; all three are safe to call concurrently (the
// engine hashes the digest into cache keys from many workers).
type Checkpoint struct {
	meta  Meta
	state *pipeline.CoreState

	once   sync.Once
	enc    []byte // set by Decode, or by the first encoded call
	digest string
}

// New builds a checkpoint from a captured core state, which it keeps and
// the caller must no longer modify.
func New(meta Meta, st *pipeline.CoreState) (*Checkpoint, error) {
	if st == nil {
		return nil, fmt.Errorf("checkpoint: nil core state")
	}
	if len(meta.Code) == 0 {
		return nil, fmt.Errorf("checkpoint: meta embeds no program code")
	}
	return &Checkpoint{meta: meta, state: st}, nil
}

// encoded returns the canonical encoding, building it and the digest on
// the first call.
func (c *Checkpoint) encoded() []byte {
	c.once.Do(func() {
		if c.enc == nil {
			c.enc = encode(c)
		}
		c.digest = digestOf(c.enc)
	})
	return c.enc
}

// digestOf computes the SHA-256 hex digest of an encoding.
func digestOf(enc []byte) string {
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// Meta returns the checkpoint's provenance metadata.
func (c *Checkpoint) Meta() Meta { return c.meta }

// State returns the captured core state. Callers must treat it as
// read-only; it is shared by every restore of this checkpoint.
func (c *Checkpoint) State() *pipeline.CoreState { return c.state }

// Digest returns the SHA-256 hex digest of the canonical encoding. It is
// the checkpoint's identity: engine cache keys, cluster references, and
// the -checkpoint-in cross-check all use it.
func (c *Checkpoint) Digest() string {
	c.encoded()
	return c.digest
}

// Encode returns the canonical encoding. The slice is shared and must not
// be modified.
func (c *Checkpoint) Encode() []byte { return c.encoded() }

// Program reconstructs the embedded program image. Initial registers and
// memory are zero: the captured state supersedes them, and a restored run
// never consults them.
func (c *Checkpoint) Program() *program.Program {
	return &program.Program{
		Name:  c.meta.ProgramName,
		Entry: c.meta.ProgramEntry,
		Code:  append([]isa.Instruction(nil), c.meta.Code...),
	}
}

// CompatibleWith reports whether the checkpoint can seed a run of the
// given program: identical code and entry point. Initial register and
// memory images are deliberately not compared — the checkpointed state
// replaces them.
func (c *Checkpoint) CompatibleWith(p *program.Program) error {
	if p == nil {
		return fmt.Errorf("checkpoint: nil program")
	}
	if p.Entry != c.meta.ProgramEntry {
		return fmt.Errorf("checkpoint %q was taken at entry %d, program %q enters at %d",
			c.meta.ProgramName, c.meta.ProgramEntry, p.Name, p.Entry)
	}
	if len(p.Code) != len(c.meta.Code) {
		return fmt.Errorf("checkpoint %q embeds %d instructions, program %q has %d",
			c.meta.ProgramName, len(c.meta.Code), p.Name, len(p.Code))
	}
	for i := range p.Code {
		if p.Code[i] != c.meta.Code[i] {
			return fmt.Errorf("checkpoint %q diverges from program %q at instruction %d",
				c.meta.ProgramName, p.Name, i)
		}
	}
	return nil
}

// Equal reports whether two checkpoints have identical canonical
// encodings (and therefore identical digests).
func (c *Checkpoint) Equal(o *Checkpoint) bool {
	return c != nil && o != nil && bytes.Equal(c.encoded(), o.encoded())
}
