package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"doppelganger/internal/pipeline"
	"doppelganger/internal/recfile"
)

// On-disk / wire layout (all integers little-endian):
//
//	[4]byte  magic "DGCK"
//	uint32   format version
//	uint32   section count
//	repeated per section:
//	    uint32  name length
//	    []byte  name
//	    uint64  payload length
//	    []byte  payload
//	    uint32  CRC-32 (IEEE) of payload
//
// The header and each section's length | payload | CRC record are
// internal/recfile's framing, declared by format below. Sections are JSON
// payloads, written in a fixed order ("meta", "core") so the encoding —
// and therefore the digest — is canonical. Readers locate sections by
// name, so a future version can append sections without disturbing old
// ones; any change to existing payload schemas must bump Version (the
// golden test pins the encoding to force this).

// Magic identifies a checkpoint file.
const Magic = "DGCK"

// Version is the checkpoint format version. Bump it on any encoding
// change; readers refuse other versions with a clear error.
const Version = 1

const (
	sectionMeta = "meta"
	sectionCore = "core"

	maxSections    = 64
	maxNameLen     = 256
	maxPayloadSize = 1 << 31 // 2 GiB; a real checkpoint is a few MiB
)

// format is the DGCK header and section record: an 8-byte payload length
// head, and a CRC over the payload alone.
var format = recfile.Format{
	Magic: Magic, Version: Version, Name: "checkpoint",
	Head: 8, MaxBody: maxPayloadSize,
	BodyLen: func(head []byte) (uint64, bool) { return binary.LittleEndian.Uint64(head), true },
}

// ErrNotCheckpoint marks data that does not start with the checkpoint
// magic number.
var ErrNotCheckpoint = errors.New("checkpoint: not a checkpoint (bad magic)")

var (
	// ErrVersion marks a checkpoint written by a different format version.
	ErrVersion = recfile.ErrVersion
	// ErrCorrupt marks a structurally damaged checkpoint (truncation, bad
	// section CRC, malformed payload).
	ErrCorrupt = recfile.ErrCorrupt
)

// encode builds the canonical encoding. Marshalling cannot fail: Meta and
// CoreState hold no floats, maps, interfaces, channels, funcs or custom
// marshalers (TestEncodingCannotFail walks the types).
func encode(c *Checkpoint) []byte {
	metaJSON, err1 := json.Marshal(c.meta)
	coreJSON, err2 := json.Marshal(c.state)
	if err := errors.Join(err1, err2); err != nil {
		panic(fmt.Sprintf("checkpoint: encoding: %v", err))
	}
	sections := [...]struct {
		name    string
		payload []byte
	}{{sectionMeta, metaJSON}, {sectionCore, coreJSON}}
	size := recfile.HeaderLen + 4
	for _, s := range sections {
		size += 4 + len(s.name) + int(format.Size(s.payload))
	}
	buf := format.AppendHeader(make([]byte, 0, size))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sections)))
	for _, s := range sections {
		buf = append(binary.LittleEndian.AppendUint32(buf, uint32(len(s.name))), s.name...)
		buf = format.Append(buf, binary.LittleEndian.AppendUint64(nil, uint64(len(s.payload))), s.payload)
	}
	return buf
}

// Decode parses and verifies an encoded checkpoint: magic, format
// version, section CRCs, and the presence and validity of the required
// sections. The returned checkpoint's digest is computed over the exact
// input bytes, so Decode(Encode()) round-trips the identity.
func Decode(data []byte) (*Checkpoint, error) {
	if !bytes.HasPrefix(data, []byte(Magic)) {
		return nil, ErrNotCheckpoint
	}
	if err := format.CheckHeader(data); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(data) < recfile.HeaderLen+4 {
		return nil, fmt.Errorf("checkpoint: %w: truncated at the section count", ErrCorrupt)
	}
	nSections := binary.LittleEndian.Uint32(data[recfile.HeaderLen:])
	if nSections > maxSections {
		return nil, fmt.Errorf("checkpoint: %w: implausible section count %d", ErrCorrupt, nSections)
	}
	r, end := bytes.NewReader(data), int64(len(data))
	payloads := make(map[string][]byte, nSections)
	off := int64(recfile.HeaderLen + 4)
	for i := uint32(0); i < nSections; i++ {
		if off+4 > end {
			return nil, fmt.Errorf("checkpoint: %w: truncated at section %d name length", ErrCorrupt, i)
		}
		nameLen := int64(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if nameLen > maxNameLen || off+nameLen > end {
			return nil, fmt.Errorf("checkpoint: %w: truncated at section %d name", ErrCorrupt, i)
		}
		name := string(data[off : off+nameLen])
		_, payload, err := format.ReadAt(r, off+nameLen, end)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: section %q: %w", name, err)
		}
		payloads[name] = payload
		off += nameLen + format.Size(payload)
	}
	if off != end {
		return nil, fmt.Errorf("checkpoint: %w: %d trailing bytes after last section", ErrCorrupt, end-off)
	}
	metaJSON, ok := payloads[sectionMeta]
	if !ok {
		return nil, fmt.Errorf("checkpoint: %w: missing %q section", ErrCorrupt, sectionMeta)
	}
	coreJSON, ok := payloads[sectionCore]
	if !ok {
		return nil, fmt.Errorf("checkpoint: %w: missing %q section", ErrCorrupt, sectionCore)
	}
	c := &Checkpoint{state: new(pipeline.CoreState)}
	if err := json.Unmarshal(metaJSON, &c.meta); err != nil {
		return nil, fmt.Errorf("checkpoint: %w: bad meta section: %v", ErrCorrupt, err)
	}
	if err := json.Unmarshal(coreJSON, c.state); err != nil {
		return nil, fmt.Errorf("checkpoint: %w: bad core section: %v", ErrCorrupt, err)
	}
	if len(c.meta.Code) == 0 {
		return nil, fmt.Errorf("checkpoint: %w: meta embeds no program code", ErrCorrupt)
	}
	c.enc = append([]byte(nil), data...)
	return c, nil
}

// WriteFile writes the canonical encoding to path (0644), replacing any
// existing file.
func (c *Checkpoint) WriteFile(path string) error {
	if err := os.WriteFile(path, c.Encode(), 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ReadFile reads and verifies a checkpoint file.
func ReadFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	c, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
