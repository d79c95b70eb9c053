package store

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// openAlloc bounds what Open may allocate for an n-byte file: a record
// buffer of at most maxRecordLen plus a constant factor of the file, never
// what a hostile length field asks for.
func openAlloc(n int) uint64 { return 2*maxRecordLen + 16*uint64(n) }

// FuzzStoreOpen feeds arbitrary bytes to Open as a store file. Open must
// stay within openAlloc; a refusal must be ErrCorrupt or ErrVersion; an
// accepted file must serve every indexed key and reopen to the same keys.
//
//	go test -fuzz=FuzzStoreOpen -fuzztime=2m -fuzzminimizetime=100x -run '^$' ./internal/cluster/store
func FuzzStoreOpen(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.dgrs")
	s, err := Open(seed)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if err := s.Put(string(rune('a'+i))+"0123456789abcdef", testResult(i)); err != nil {
			f.Fatal(err)
		}
	}
	s.Put("a0123456789abcdef", testResult(9)) // a superseded record
	s.Close()
	good, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:8])
	f.Add(good[:len(good)-3])
	f.Add([]byte{})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add(overflowingLengths())
	f.Add(undecodableValue())

	// One file per fuzzing process, rewritten by every input: a fresh
	// directory per input would cost more than the decode under test.
	path := filepath.Join(f.TempDir(), "fuzz.dgrs")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(path)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > openAlloc(len(data)) {
			t.Fatalf("Open of a %d-byte file allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("refusal is neither ErrCorrupt nor ErrVersion: %v", err)
			}
			return
		}
		for key := range s.index {
			if _, ok, err := s.Get(key); err != nil || !ok {
				t.Fatalf("accepted key %q does not read back: ok=%v err=%v", key, ok, err)
			}
		}
		n := s.Len()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(path)
		if err != nil {
			t.Fatalf("accepted store does not reopen: %v", err)
		}
		defer again.Close()
		if again.Len() != n {
			t.Fatalf("reopened store holds %d keys, first open %d", again.Len(), n)
		}
	})
}
