package recfile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// toy is a format whose one-byte head is the body length and whose CRC
// covers the head too.
var toy = Format{
	Magic: "TOYF", Version: 3, Name: "toy",
	Head: 1, CRCHead: 1, MaxBody: 16,
	BodyLen: func(head []byte) (uint64, bool) { return uint64(head[0]), head[0] != 0 },
}

func reopen(t *testing.T, path string) (*Log, []string) {
	t.Helper()
	var bodies []string
	l, err := toy.Open(path, func(_ int64, _, body []byte) error {
		bodies = append(bodies, string(body))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, bodies
}

// TestLogLifecycle drives one log through append, a torn tail, a rewrite
// and the refusals, reopening after each step.
func TestLogLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "toy.log")
	l, bodies := reopen(t, path)
	if len(bodies) != 0 || l.Size() != HeaderLen {
		t.Fatalf("fresh log: %d records, %d bytes", len(bodies), l.Size())
	}
	var offs []int64
	for _, body := range []string{"one", "two", "three"} {
		off, err := l.Append([]byte{byte(len(body))}, []byte(body))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if _, body, err := l.ReadAt(offs[1]); err != nil || string(body) != "two" {
		t.Fatalf("ReadAt = %q, %v", body, err)
	}
	l.Close()

	// A torn tail is truncated away; the records before it survive.
	if err := os.Truncate(path, offs[2]+2); err != nil {
		t.Fatal(err)
	}
	l, bodies = reopen(t, path)
	if len(bodies) != 2 || l.Size() != offs[2] {
		t.Fatalf("after a torn tail: %q, %d bytes, want 2 records and %d", bodies, l.Size(), offs[2])
	}

	data := toy.Append(toy.AppendHeader(nil), []byte{4}, []byte("fo"), []byte("ur"))
	if err := l.Rewrite(data); err != nil {
		t.Fatal(err)
	}
	if _, body, err := l.ReadAt(HeaderLen); err != nil || string(body) != "four" {
		t.Fatalf("ReadAt after Rewrite = %q, %v", body, err)
	}
	l.Close()
	if _, bodies = reopen(t, path); len(bodies) != 1 || bodies[0] != "four" {
		t.Fatalf("after Rewrite: %q", bodies)
	}

	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"bad magic":       {append([]byte("NOPE"), data[4:]...), ErrCorrupt},
		"short header":    {data[:5], ErrCorrupt},
		"other version":   {append(append([]byte("TOYF"), 4, 0, 0, 0), data[8:]...), ErrVersion},
		"checksum":        {append(data[:len(data)-1:len(data)-1], data[len(data)-1]^1), ErrCorrupt},
		"implausible len": {append(bytes.Clone(data[:8]), 0), ErrCorrupt},
	} {
		bad := filepath.Join(t.TempDir(), "bad.log")
		if err := os.WriteFile(bad, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := toy.Open(bad, func(int64, []byte, []byte) error { return nil }); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}
