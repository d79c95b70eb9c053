// Package store is the cluster's persistent result tier: a versioned,
// checksum-verified, append-only record file mapping engine cache keys to
// simulation results. A coordinator fronted by the in-memory LRU writes
// every computed result through to the store, so a restarted cluster serves
// previously-computed sweeps without simulating anything.
//
// File layout (all integers little-endian):
//
//	header:  magic "DGRS" | uint32 version
//	record:  uint32 keyLen | uint32 valLen | key | val | uint32 crc32(key‖val)
//
// The file is append-only; rewriting a key appends a newer record (last one
// wins on load). Compact rewrites only the live records. Load verifies
// every record's CRC: a torn final record (a crash mid-append) is truncated
// away silently, but a checksum mismatch on a complete record is corruption
// and fails loudly with ErrCorrupt.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"doppelganger/sim"
)

// Version is the current file-format version. Load rejects files written by
// a different version rather than guessing at their layout.
//
// Version 2: engine cache keys gained a checkpoint-digest component, so keys
// written by version-1 builds may name different simulations than the same
// bytes under this build. The record layout is unchanged; the bump exists to
// keep stale key→result mappings from being served.
const Version = 2

var magic = [4]byte{'D', 'G', 'R', 'S'}

// ErrCorrupt reports a complete record whose checksum did not verify (or a
// malformed header). It wraps position detail; test with errors.Is.
var ErrCorrupt = errors.New("store: corrupt record")

// maxRecordLen bounds a single record so a corrupt length field cannot make
// Load attempt a multi-gigabyte allocation.
const maxRecordLen = 16 << 20

// Store is a durable key→result map. Safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	end   int64            // append offset
	index map[string]entry // key -> newest record
	dead  int64            // bytes occupied by superseded records
}

type entry struct {
	off    int64 // offset of the value bytes
	valLen uint32
	crc    uint32 // crc32(key‖val), re-verified on every read
}

// Open opens (creating if absent) the store at path and loads its index,
// verifying every record checksum. A torn trailing record is truncated; any
// other checksum failure returns ErrCorrupt.
func Open(path string) (*Store, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{path: path, f: f, index: make(map[string]entry)}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load reads the header and replays every record into the index.
func (s *Store) load() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if info.Size() == 0 {
		// Fresh file: write the header.
		var hdr [8]byte
		copy(hdr[:4], magic[:])
		binary.LittleEndian.PutUint32(hdr[4:], Version)
		if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.end = int64(len(hdr))
		return nil
	}
	var hdr [8]byte
	if _, err := io.ReadFull(io.NewSectionReader(s.f, 0, 8), hdr[:]); err != nil {
		return fmt.Errorf("%w: short header in %s", ErrCorrupt, s.path)
	}
	if [4]byte(hdr[:4]) != magic {
		return fmt.Errorf("%w: bad magic in %s", ErrCorrupt, s.path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != Version {
		return fmt.Errorf("store: %s is format version %d, this build reads version %d", s.path, v, Version)
	}

	off := int64(len(hdr))
	size := info.Size()
	for off < size {
		var rec [8]byte
		if _, err := io.ReadFull(io.NewSectionReader(s.f, off, 8), rec[:]); err != nil {
			// Torn header at the tail: a crash mid-append. Truncate it away.
			return s.truncate(off)
		}
		keyLen := binary.LittleEndian.Uint32(rec[:4])
		valLen := binary.LittleEndian.Uint32(rec[4:])
		if keyLen == 0 || uint64(keyLen)+uint64(valLen) > maxRecordLen {
			return fmt.Errorf("%w: implausible record lengths (%d,%d) at offset %d in %s",
				ErrCorrupt, keyLen, valLen, off, s.path)
		}
		body := make([]byte, int(keyLen)+int(valLen)+4)
		if _, err := io.ReadFull(io.NewSectionReader(s.f, off+8, int64(len(body))), body); err != nil {
			// Torn body at the tail.
			return s.truncate(off)
		}
		payload := body[:keyLen+valLen]
		want := binary.LittleEndian.Uint32(body[keyLen+valLen:])
		if got := crc32.ChecksumIEEE(payload); got != want {
			return fmt.Errorf("%w: checksum mismatch at offset %d in %s (crc %08x, want %08x)",
				ErrCorrupt, off, s.path, got, want)
		}
		key := string(payload[:keyLen])
		if old, ok := s.index[key]; ok {
			s.dead += 8 + int64(keyLen) + int64(old.valLen) + 4
		}
		s.index[key] = entry{off: off + 8 + int64(keyLen), valLen: valLen, crc: want}
		off += 8 + int64(len(body))
	}
	s.end = off
	return nil
}

// truncate drops a torn tail so future appends start on a record boundary.
func (s *Store) truncate(off int64) error {
	if err := s.f.Truncate(off); err != nil {
		return fmt.Errorf("store: truncating torn tail: %w", err)
	}
	s.end = off
	return nil
}

// Get returns the stored result for key, re-verifying its checksum on read.
func (s *Store) Get(key string) (sim.Result, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		return sim.Result{}, false, nil
	}
	buf := make([]byte, e.valLen)
	if _, err := io.ReadFull(io.NewSectionReader(s.f, e.off, int64(e.valLen)), buf); err != nil {
		return sim.Result{}, false, fmt.Errorf("store: reading %s: %w", key, err)
	}
	if got := crc32.ChecksumIEEE(append([]byte(key), buf...)); got != e.crc {
		return sim.Result{}, false, fmt.Errorf("%w: key %s fails checksum on read", ErrCorrupt, key)
	}
	var res sim.Result
	if err := json.Unmarshal(buf, &res); err != nil {
		return sim.Result{}, false, fmt.Errorf("store: decoding %s: %w", key, err)
	}
	return res, true, nil
}

// Put durably records key→res, superseding any prior record for key.
func (s *Store) Put(key string, res sim.Result) error {
	val, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", key, err)
	}
	rec := make([]byte, 8+len(key)+len(val)+4)
	binary.LittleEndian.PutUint32(rec[:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
	copy(rec[8:], key)
	copy(rec[8+len(key):], val)
	crc := crc32.ChecksumIEEE(rec[8 : 8+len(key)+len(val)])
	binary.LittleEndian.PutUint32(rec[8+len(key)+len(val):], crc)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	if _, err := s.f.WriteAt(rec, s.end); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if old, ok := s.index[key]; ok {
		s.dead += 8 + int64(len(key)) + int64(old.valLen) + 4
	}
	s.index[key] = entry{off: s.end + 8 + int64(len(key)), valLen: uint32(len(val)), crc: crc}
	s.end += int64(len(rec))
	return nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats describes the store file.
type Stats struct {
	// Keys is the number of live keys.
	Keys int `json:"keys"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes"`
	// DeadBytes counts space held by superseded records (reclaimed by
	// Compact).
	DeadBytes int64 `json:"dead_bytes"`
}

// Stats returns a snapshot of the file's live/dead occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Keys: len(s.index), Bytes: s.end, DeadBytes: s.dead}
}

// Sync flushes buffered writes to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.f.Sync()
}

// Compact rewrites the store keeping only the newest record per key,
// atomically replacing the file (write temp, fsync, rename).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename

	var hdr [8]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	newIndex := make(map[string]entry, len(s.index))
	off := int64(len(hdr))
	for key, e := range s.index {
		val := make([]byte, e.valLen)
		if _, err := io.ReadFull(io.NewSectionReader(s.f, e.off, int64(e.valLen)), val); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: reading %s: %w", key, err)
		}
		rec := make([]byte, 8+len(key)+len(val)+4)
		binary.LittleEndian.PutUint32(rec[:4], uint32(len(key)))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
		copy(rec[8:], key)
		copy(rec[8+len(key):], val)
		binary.LittleEndian.PutUint32(rec[8+len(key)+len(val):], e.crc)
		if _, err := tmp.Write(rec); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		newIndex[key] = entry{off: off + 8 + int64(len(key)), valLen: e.valLen, crc: e.crc}
		off += int64(len(rec))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	s.f.Close()
	s.f, s.index, s.end, s.dead = tmp, newIndex, off, 0
	return nil
}

// Close syncs and closes the file. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
