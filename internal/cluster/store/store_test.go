package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"doppelganger/sim"
)

func testResult(i uint64) sim.Result {
	return sim.Result{
		Program:  "stream",
		Cycles:   1000 + i,
		Insts:    500 + i,
		IPC:      0.5,
		Checksum: 0xdeadbeef + i,
	}
}

func open(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.db")
	s := open(t, path)
	if err := s.Put("key-a", testResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-b", testResult(2)); err != nil {
		t.Fatal(err)
	}
	res, ok, err := s.Get("key-a")
	if err != nil || !ok {
		t.Fatalf("Get(key-a) = %v, %v", ok, err)
	}
	if res != testResult(1) {
		t.Errorf("Get(key-a) = %+v, want %+v", res, testResult(1))
	}
	if _, ok, _ := s.Get("missing"); ok {
		t.Error("Get(missing) reported a hit")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.db")
	s := open(t, path)
	for i := uint64(0); i < 20; i++ {
		if err := s.Put(string(rune('a'+i))+"-key", testResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite one: last record wins after reload.
	if err := s.Put("a-key", testResult(99)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, path)
	if s2.Len() != 20 {
		t.Fatalf("reopened Len = %d, want 20", s2.Len())
	}
	res, ok, err := s2.Get("a-key")
	if err != nil || !ok {
		t.Fatalf("Get after reopen: %v, %v", ok, err)
	}
	if res != testResult(99) {
		t.Errorf("overwritten key = %+v, want the newer record", res)
	}
}

func TestCorruptRecordDetectedOnLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.db")
	s := open(t, path)
	if err := s.Put("key-a", testResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-b", testResult(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip one byte inside the first record's value.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8+8+len("key-a")+3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt file: err = %v, want ErrCorrupt", err)
	}
}

func TestCorruptReadDetectedOnGet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.db")
	s := open(t, path)
	if err := s.Put("key-a", testResult(1)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the live file behind the open store: the next Get re-verifies.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 8+8+int64(len("key-a"))+2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := s.Get("key-a"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on corrupted value: err = %v, want ErrCorrupt", err)
	}
}

func TestTornTailTruncatedSilently(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.db")
	s := open(t, path)
	if err := s.Put("key-a", testResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-b", testResult(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Chop the file mid-way through the final record: a crash mid-append.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, path)
	if s2.Len() != 1 {
		t.Fatalf("Len after torn tail = %d, want 1", s2.Len())
	}
	if _, ok, _ := s2.Get("key-b"); ok {
		t.Error("torn record still readable")
	}
	// The store must keep working (appends land on the new boundary).
	if err := s2.Put("key-c", testResult(3)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := open(t, path)
	if s3.Len() != 2 {
		t.Errorf("Len after post-truncation append = %d, want 2", s3.Len())
	}
}

func TestBadMagicAndVersionRejected(t *testing.T) {
	dir := t.TempDir()

	badMagic := filepath.Join(dir, "magic.db")
	if err := os.WriteFile(badMagic, []byte("NOPE\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badMagic); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}

	badVersion := filepath.Join(dir, "version.db")
	hdr := []byte{'D', 'G', 'R', 'S', 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[4:], 999)
	if err := os.WriteFile(badVersion, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badVersion); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: err = %v, want ErrVersion", err)
	}
}

// undecodableValue is a store file holding one record whose checksum
// verifies but whose value is not a JSON result.
func undecodableValue() []byte {
	key, val := "k", "not json"
	b := []byte{'D', 'G', 'R', 'S', 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[4:], Version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(val)))
	b = append(append(b, key...), val...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte(key+val)))
}

// TestUndecodableValueRefused: Open must not index a record that Get
// would then refuse.
func TestUndecodableValueRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "undecodable.db")
	if err := os.WriteFile(path, undecodableValue(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		_, _, gerr := s.Get("k")
		s.Close()
		t.Fatalf("Open accepted an undecodable value (Len %d); Get then says %v", s.Len(), gerr)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// overflowingLengths is a store file whose first record's key and value
// lengths sum past 2^32: each is plausible on its own, their uint32 sum
// wraps to a small number.
func overflowingLengths() []byte {
	b := []byte{'D', 'G', 'R', 'S', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[4:], Version)
	binary.LittleEndian.PutUint32(b[8:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(b[12:], 1)
	return append(b, make([]byte, 64)...)
}

// TestOverflowingLengthsRefused: record lengths whose sum overflows are
// corruption, refused before any allocation, not a torn tail truncated
// away after a 4 GiB one.
func TestOverflowingLengthsRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overflow.db")
	if err := os.WriteFile(path, overflowingLengths(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestCompactReclaimsDeadBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.db")
	s := open(t, path)
	for i := uint64(0); i < 50; i++ {
		// Rewrite the same two keys repeatedly: 96 dead records.
		if err := s.Put("hot-a", testResult(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("hot-b", testResult(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.DeadBytes == 0 {
		t.Fatal("rewrites produced no dead bytes")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.DeadBytes != 0 || after.Bytes >= before.Bytes {
		t.Errorf("compact: %+v -> %+v", before, after)
	}
	res, ok, err := s.Get("hot-a")
	if err != nil || !ok || res != testResult(49) {
		t.Errorf("post-compact Get = %+v, %v, %v", res, ok, err)
	}
	// Compacted file must reload cleanly with the same contents.
	s.Close()
	s2 := open(t, path)
	if s2.Len() != 2 {
		t.Errorf("post-compact reopen Len = %d, want 2", s2.Len())
	}
	res, ok, err = s2.Get("hot-b")
	if err != nil || !ok || res != testResult(98) {
		t.Errorf("post-compact reopen Get = %+v, %v, %v", res, ok, err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.db")
	s := open(t, path)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < 100; i++ {
			s.Put("w-key", testResult(i))
		}
	}()
	for i := uint64(0); i < 100; i++ {
		s.Get("w-key")
		s.Put("r-key", testResult(i))
	}
	<-done
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

// TestCRCMatchesSpec pins the record checksum definition (IEEE CRC-32 over
// key‖value): the on-disk format is a cross-version contract.
func TestCRCMatchesSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.db")
	s := open(t, path)
	if err := s.Put("k", testResult(7)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	keyLen := binary.LittleEndian.Uint32(raw[8:12])
	valLen := binary.LittleEndian.Uint32(raw[12:16])
	payload := raw[16 : 16+keyLen+valLen]
	stored := binary.LittleEndian.Uint32(raw[16+keyLen+valLen:])
	if crc32.ChecksumIEEE(payload) != stored {
		t.Error("stored CRC is not IEEE CRC-32 over key‖value")
	}
}

// fileDigest is the SHA-256 of the file at path, hex-encoded.
func fileDigest(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestStoreFileGolden pins the exact DGRS bytes written by a fixed run of
// Put calls (one key superseded) and by the Compact that follows. The file
// is a cross-version contract: if it changes ON PURPOSE, bump Version and
// update both digests. A change to sim.Result's JSON also moves them.
func TestStoreFileGolden(t *testing.T) {
	const (
		wantPut     = "7433ea4a9df81195de4450bcde01659e0da01c3a8fbd44a2919893f2890eb437"
		wantCompact = "286ce727452743bee5d0b2c787c426226a8d593e602ae43c9e0403c75a072b55"
	)
	path := filepath.Join(t.TempDir(), "results.db")
	s := open(t, path)
	for i, key := range []string{"key-a", "key-b", "key-c", "key-a"} {
		if err := s.Put(key, testResult(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := fileDigest(t, path); got != wantPut {
		t.Errorf("store file after Put:\n  got  %s\n  want %s", got, wantPut)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := fileDigest(t, path); got != wantCompact {
		t.Errorf("store file after Compact:\n  got  %s\n  want %s", got, wantCompact)
	}
}
