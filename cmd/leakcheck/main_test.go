package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGoldens regenerates testdata/*.golden:
//
//	go test ./cmd/leakcheck -update
var updateGoldens = flag.Bool("update", false, "regenerate testdata/*.golden instead of comparing against them")

// TestCLIGolden runs the command in-process on fixed arguments and compares
// its exit status and stdout with testdata/<name>.golden. Stderr (progress
// and error text) is not pinned.
func TestCLIGolden(t *testing.T) {
	for _, c := range []struct{ name, args string }{
		{"classic", "-seeds 4 -schemes unsafe,dom"},
		{"classic-json", "-seeds 4 -schemes unsafe,dom -json"},
		{"minimize", "-seed 0 -schemes unsafe -ap off -mutations=false -minimize"},
		{"contracts", "-contracts -seeds 4 -schemes unsafe,dom"},
		{"contracts-json", "-contracts -seeds 4 -schemes unsafe,dom -json"},
		{"blind", "-first 1 -seeds 1 -schemes dom -ap off -mutation-seeds 1"},
		{"contracts-blind", "-contracts -first 1 -seeds 1 -schemes dom -ap off -mutation-seeds 1"},
		{"campaign", "-campaign -budget 4 -schemes unsafe -ap off -seed 1"},
		{"unknown-scheme", "-schemes nosuch"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(append(strings.Fields(c.args), "-workers", "2"), &stdout, &stderr)
			got := append([]byte(fmt.Sprintf("exit %d\n", code)), stdout.Bytes()...)
			path := filepath.Join("testdata", c.name+".golden")
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("leakcheck %s differs from %s (stderr: %s):\n%s", c.args, path, stderr.Bytes(), firstDiff(got, want))
			}
		})
	}
}

// firstDiff shows the first differing line of two outputs.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
