package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"doppelganger/internal/workload"
)

// updateExperiments regenerates testdata/experiments_golden.txt:
//
//	go test ./internal/harness -run TestExperimentsGolden -update
//
// The file pins the text of every experiment on the stream kernel at test
// scale: the output of `figures -scale test -only extensions` and of each
// `-only sensitivity-<axis>`. The extensions' §2.3 check must pass on it.
var updateExperiments = flag.Bool("update", false, "regenerate testdata/experiments_golden.txt instead of comparing against it")

const experimentsGoldenFile = "testdata/experiments_golden.txt"

func TestExperimentsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, e := range Experiments {
		rows, err := e.Run("stream", Options{Scale: workload.ScaleTest, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		e.Print(&out, "stream", rows)
		if e.Name == "extensions" {
			checks := e.Check("stream", rows)
			if len(checks) == 0 {
				t.Error("extensions carry no checks")
			}
			for _, c := range checks {
				if !c.Pass {
					t.Errorf("check %s failed: %s (measured: %s)", c.Name, c.Claim, c.Detail)
				}
			}
		}
	}
	if *updateExperiments {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentsGoldenFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(experimentsGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("experiment text differs from %s:\n%s", experimentsGoldenFile, firstDiff(out.Bytes(), want))
	}
}

// firstDiff renders the first differing line of got against want.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return "(lengths differ)"
}
