package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"doppelganger/internal/leakcheck"
	"doppelganger/internal/secure"
)

// openAlloc bounds what OpenCorpus may allocate for an n-byte file: a record
// buffer of at most maxRecordLen plus a constant factor of the file, never
// what a hostile length field asks for.
func openAlloc(n int) uint64 { return 2*maxRecordLen + 16*uint64(n) }

// FuzzOpenCorpus feeds arbitrary bytes to OpenCorpus as a corpus file.
// OpenCorpus must stay within openAlloc; a refusal must be ErrCorrupt
// or ErrVersion; an accepted file must reopen to the same inputs and
// leaks.
//
//	go test -fuzz=FuzzOpenCorpus -fuzztime=2m -fuzzminimizetime=100x -run '^$' ./internal/campaign
func FuzzOpenCorpus(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.dgcf")
	c, err := OpenCorpus(seed)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := c.AddInput(InputRecord{Params: leakcheck.Generate(7).Normalize(), Cells: []uint64{1, 9, 4}}); err != nil {
		f.Fatal(err)
	}
	lp := leakcheck.Generate(3).Normalize()
	cfg := leakcheck.Config{Scheme: secure.Unsafe}
	if _, err := c.AddLeak(LeakRecord{
		Params: lp, Config: cfg, Components: []string{"L1"}, Clauses: []string{"ct-spec"},
		Sig: LeakSig(cfg, lp.Kind, []string{"L1"}, []string{"ct-spec"}), Key: LeakKey(lp, cfg),
	}); err != nil {
		f.Fatal(err)
	}
	c.Close()
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

	// One file per fuzzing process, rewritten by every input: a fresh
	// directory per input would cost more than the decode under test.
	path := filepath.Join(f.TempDir(), "fuzz.dgcf")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := OpenCorpus(path)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > openAlloc(len(data)) {
			t.Fatalf("OpenCorpus of a %d-byte file allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("refusal is neither ErrCorrupt nor ErrVersion: %v", err)
			}
			return
		}
		inputs, leaks := len(c.Inputs), len(c.Leaks)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenCorpus(path)
		if err != nil {
			t.Fatalf("accepted corpus does not reopen: %v", err)
		}
		defer again.Close()
		if len(again.Inputs) != inputs || len(again.Leaks) != leaks {
			t.Fatalf("reopened corpus holds %d inputs, %d leaks; first open %d, %d",
				len(again.Inputs), len(again.Leaks), inputs, leaks)
		}
	})
}
