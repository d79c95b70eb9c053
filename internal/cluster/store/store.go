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
// every record's CRC and decodes every value: a torn final record (a crash
// mid-append) is truncated away silently, but a checksum mismatch or an
// undecodable value in a complete record is corruption and fails loudly
// with ErrCorrupt. The framing is internal/recfile's.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"doppelganger/internal/recfile"
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

// maxRecordLen bounds a single record so a corrupt length field cannot make
// Load attempt a multi-gigabyte allocation.
const maxRecordLen = 16 << 20

// format is the DGRS layout: the head is keyLen | valLen and the CRC
// covers the body, key‖val, alone.
var format = recfile.Format{
	Magic: "DGRS", Version: Version, Name: "store",
	Head: 8, MaxBody: maxRecordLen,
	BodyLen: func(head []byte) (uint64, bool) {
		keyLen := binary.LittleEndian.Uint32(head)
		return uint64(keyLen) + uint64(binary.LittleEndian.Uint32(head[4:])), keyLen != 0
	},
}

var (
	// ErrCorrupt reports a complete record that does not verify (or a
	// malformed header). It wraps position detail; test with errors.Is.
	ErrCorrupt = recfile.ErrCorrupt
	// ErrVersion reports a file written by another format version.
	ErrVersion = recfile.ErrVersion
)

var errClosed = errors.New("store: closed")

// Store is a durable key→result map. Safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	log   *recfile.Log     // nil once closed
	index map[string]entry // key -> newest record
	dead  int64            // bytes occupied by superseded records
}

type entry struct {
	off, size int64 // the record's offset and encoded size
}

// Open opens (creating if absent) the store at path and loads its index,
// verifying every record checksum and decoding every value. A torn
// trailing record is truncated; any other failure returns ErrCorrupt.
func Open(path string) (*Store, error) {
	s := &Store{index: make(map[string]entry)}
	log, err := format.Open(path, func(off int64, head, body []byte) error {
		keyLen := binary.LittleEndian.Uint32(head)
		key, val := string(body[:keyLen]), body[keyLen:]
		var res sim.Result
		if err := json.Unmarshal(val, &res); err != nil {
			return fmt.Errorf("%w: undecodable value for key %q at offset %d: %v", ErrCorrupt, key, off, err)
		}
		s.setEntry(key, entry{off: off, size: format.Size(body)})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.log = log
	return s, nil
}

// setEntry points key at its newest record, counting the one it
// supersedes as dead.
func (s *Store) setEntry(key string, e entry) {
	if old, ok := s.index[key]; ok {
		s.dead += old.size
	}
	s.index[key] = e
}

// Get returns the stored result for key, re-verifying its checksum on read.
func (s *Store) Get(key string) (sim.Result, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		return sim.Result{}, false, nil
	}
	if s.log == nil {
		return sim.Result{}, false, errClosed
	}
	head, body, err := s.log.ReadAt(e.off)
	if err != nil {
		return sim.Result{}, false, fmt.Errorf("store: reading %s: %w", key, err)
	}
	keyLen := binary.LittleEndian.Uint32(head)
	if string(body[:keyLen]) != key {
		return sim.Result{}, false, fmt.Errorf("%w: the record for %s holds key %s", ErrCorrupt, key, body[:keyLen])
	}
	val := body[keyLen:]
	var res sim.Result
	if err := json.Unmarshal(val, &res); err != nil {
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
	head := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(len(key))), uint32(len(val)))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return errClosed
	}
	off, err := s.log.Append(head, []byte(key), val)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.setEntry(key, entry{off: off, size: s.log.Size() - off})
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
	st := Stats{Keys: len(s.index), DeadBytes: s.dead}
	if s.log != nil {
		st.Bytes = s.log.Size()
	}
	return st
}

// Sync flushes buffered writes to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Sync()
}

// Compact rewrites the store keeping only the newest record per key, in
// key order so the result is reproducible, atomically replacing the file
// (write temp, fsync, rename). Each record is verified as it is copied.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return errClosed
	}
	keys := make([]string, 0, len(s.index))
	for key := range s.index {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	index := make(map[string]entry, len(keys))
	data := format.AppendHeader(nil)
	for _, key := range keys {
		head, body, err := s.log.ReadAt(s.index[key].off)
		if err != nil {
			return fmt.Errorf("store: compact: reading %s: %w", key, err)
		}
		off := int64(len(data))
		data = format.Append(data, head, body)
		index[key] = entry{off: off, size: int64(len(data)) - off}
	}
	if err := s.log.Rewrite(data); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	s.index, s.dead = index, 0
	return nil
}

// Close syncs and closes the file. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Sync()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	s.log = nil
	return err
}
