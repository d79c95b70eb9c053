package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"doppelganger/internal/leakcheck"
	"doppelganger/internal/recfile"
)

// CorpusVersion is the on-disk corpus format version. OpenCorpus rejects
// files written by a different version rather than guessing at their
// layout — a campaign resumed onto a stale corpus must fail loudly, not
// silently re-explore (or worse, trust cells computed by an incompatible
// coverage encoding).
const CorpusVersion = 1

// maxRecordLen bounds one record so a corrupt length field cannot make
// OpenCorpus attempt a huge allocation.
const maxRecordLen = 4 << 20

// corpusFormat is the DGCF layout, after internal/recfile's magic | version
// header (integers little-endian):
//
//	record:  uint8 type | uint32 len | payload | uint32 crc32(type‖payload)
//
// Payloads are the JSON of an InputRecord or a LeakRecord.
var corpusFormat = recfile.Format{
	Magic: "DGCF", Version: CorpusVersion, Name: "corpus",
	Head: 5, CRCHead: 1, MaxBody: maxRecordLen,
	BodyLen: func(head []byte) (uint64, bool) {
		n := binary.LittleEndian.Uint32(head[1:])
		return uint64(n), n != 0
	},
}

var (
	// ErrCorrupt reports a complete corpus record that does not verify (or
	// a malformed header). Test with errors.Is.
	ErrCorrupt = recfile.ErrCorrupt
	// ErrVersion reports a corpus written by another format version.
	ErrVersion = recfile.ErrVersion
)

// Record types.
const (
	recInput byte = 1 // a coverage-bearing gadget genome + its cells
	recLeak  byte = 2 // a minimized, deduplicated leak reproducer
)

// InputRecord is one coverage-bearing genome. Cells is the full cell set
// its evaluation produced, persisted so a resumed campaign rebuilds its
// coverage map — and therefore its novelty judgments — without
// re-simulating anything.
type InputRecord struct {
	Params leakcheck.Params `json:"params"`
	Cells  []uint64         `json:"cells"`
}

// LeakRecord is one minimized leak reproducer.
type LeakRecord struct {
	// Params is the minimized reproducer (already normalized).
	Params leakcheck.Params `json:"params"`
	Config leakcheck.Config `json:"config"`
	// Components are the diverging digest components; Clauses the leaked
	// contract clauses, both as reported at detection time.
	Components []string `json:"components"`
	Clauses    []string `json:"clauses,omitempty"`
	// Sig is the behavioural signature (config x family x divergence
	// shape) used to dedup before paying for minimization; Key identifies
	// the minimized reproducer itself.
	Sig string `json:"sig"`
	Key string `json:"key"`
}

// LeakSig is the pre-minimization behavioural signature of a leak: two
// finds with the same signature are the same underlying channel, so only
// the first is worth minimizing and storing.
func LeakSig(cfg leakcheck.Config, kind leakcheck.Kind, components, clauses []string) string {
	return cfg.String() + "|" + kind.String() + "|" +
		strings.Join(components, ",") + "|" + strings.Join(clauses, ",")
}

// LeakKey identifies a minimized reproducer: the hash of its canonical
// parameter rendering under its config. Checksum-identical reproducers are
// duplicates regardless of which input mutated into them.
func LeakKey(p leakcheck.Params, cfg leakcheck.Config) string {
	sum := sha256.Sum256([]byte(p.Normalize().String() + "|" + cfg.String()))
	return hex.EncodeToString(sum[:])
}

// Corpus is the campaign's persistent state: every coverage-bearing input
// and every minimized leak, in one append-only versioned file. Appends are
// durable record-by-record, so a killed campaign resumes from everything
// it had fully evaluated. Safe for concurrent use.
type Corpus struct {
	mu     sync.Mutex
	log    *recfile.Log // nil for an in-memory corpus
	Inputs []InputRecord
	Leaks  []LeakRecord

	inputSeen map[string]bool
	leakSigs  map[string]bool
	leakKeys  map[string]bool
}

// NewCorpus returns an empty in-memory corpus (no persistence).
func NewCorpus() *Corpus {
	return &Corpus{
		inputSeen: make(map[string]bool),
		leakSigs:  make(map[string]bool),
		leakKeys:  make(map[string]bool),
	}
}

// OpenCorpus opens (creating if absent) the corpus file at path and replays
// it, verifying the format version and every record checksum. A torn final
// record — a crash mid-append — is truncated away; any other corruption
// fails with ErrCorrupt.
func OpenCorpus(path string) (*Corpus, error) {
	c := NewCorpus()
	log, err := corpusFormat.Open(path, func(off int64, head, payload []byte) error {
		switch head[0] {
		case recInput:
			var in InputRecord
			if err := json.Unmarshal(payload, &in); err != nil {
				return fmt.Errorf("%w: undecodable input record at offset %d: %v", ErrCorrupt, off, err)
			}
			c.replayInput(in)
		case recLeak:
			var lk LeakRecord
			if err := json.Unmarshal(payload, &lk); err != nil {
				return fmt.Errorf("%w: undecodable leak record at offset %d: %v", ErrCorrupt, off, err)
			}
			c.replayLeak(lk)
		default:
			return fmt.Errorf("%w: unknown record type %d at offset %d", ErrCorrupt, head[0], off)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	c.log = log
	return c, nil
}

// Close releases the underlying file (no-op for in-memory corpora).
func (c *Corpus) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}

// replayInput admits an input that is on disk (or needs none), reporting
// whether it was new.
func (c *Corpus) replayInput(in InputRecord) bool {
	key := in.Params.String()
	if c.inputSeen[key] {
		return false
	}
	c.inputSeen[key] = true
	c.Inputs = append(c.Inputs, in)
	return true
}

// replayLeak admits a leak that is on disk (or needs none), reporting
// whether it was new.
func (c *Corpus) replayLeak(lk LeakRecord) bool {
	if c.leakKeys[lk.Key] {
		return false
	}
	c.leakKeys[lk.Key] = true
	c.leakSigs[lk.Sig] = true
	c.Leaks = append(c.Leaks, lk)
	return true
}

// append writes one record through to disk (no-op for in-memory corpora).
func (c *Corpus) append(typ byte, v any) error {
	if c.log == nil {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("campaign: encoding corpus record: %w", err)
	}
	if _, err := c.log.Append(binary.LittleEndian.AppendUint32([]byte{typ}, uint32(len(payload))), payload); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// AddInput records a coverage-bearing genome. Returns false (and writes
// nothing) if an identical genome is already present.
func (c *Corpus) AddInput(in InputRecord) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inputSeen[in.Params.String()] {
		return false, nil
	}
	if err := c.append(recInput, in); err != nil {
		return false, err
	}
	return c.replayInput(in), nil
}

// HasLeakSig reports whether a leak with this behavioural signature is
// already known (so the caller can skip minimizing a duplicate find).
func (c *Corpus) HasLeakSig(sig string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leakSigs[sig]
}

// AddLeak records a minimized leak. Returns false (and writes nothing) if
// a checksum-identical reproducer is already present.
func (c *Corpus) AddLeak(lk LeakRecord) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leakKeys[lk.Key] {
		c.leakSigs[lk.Sig] = true
		return false, nil
	}
	if err := c.append(recLeak, lk); err != nil {
		return false, err
	}
	return c.replayLeak(lk), nil
}
