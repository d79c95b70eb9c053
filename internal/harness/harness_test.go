package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"doppelganger/internal/engine"
	"doppelganger/internal/secure"
	"doppelganger/internal/workload"
)

// smallMatrix runs a two-workload sweep once and is shared by the tests.
func smallMatrix(t *testing.T) *Matrix {
	t.Helper()
	m, err := Run(Options{
		Scale:     workload.ScaleTest,
		Workloads: []string{"matrix_blocked", "tree_search"},
		Verify:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunMatrix(t *testing.T) {
	m := smallMatrix(t)
	if len(m.Workloads) != 2 {
		t.Fatalf("workloads = %v", m.Workloads)
	}
	// 2 workloads x 5 schemes (unsafe + 4) x 2 AP = 20 cells.
	if len(m.Results) != 20 {
		t.Errorf("cells = %d, want 20", len(m.Results))
	}
	for _, w := range m.Workloads {
		base := m.Get(w, secure.Unsafe, false)
		if base.Cycles == 0 || base.Insts == 0 {
			t.Errorf("%s: empty baseline", w)
		}
		if n := m.NormIPC(w, secure.Unsafe, false); n != 1.0 {
			t.Errorf("%s: baseline normalized IPC = %v, want 1", w, n)
		}
		for _, s := range Schemes {
			if n := m.NormIPC(w, s, false); n <= 0 || n > 1.5 {
				t.Errorf("%s %v: normalized IPC %v out of range", w, s, n)
			}
		}
	}
}

func TestRunMatrixUnknownWorkload(t *testing.T) {
	if _, err := Run(Options{Workloads: []string{"nope"}}); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestGeomean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1}, 1},
		{[]float64{2, 8}, 4},
		{[]float64{4}, 4},
		{nil, 0},
		{[]float64{0, 0}, 0},
		{[]float64{0, 9}, 9}, // zeros skipped
	}
	for _, c := range cases {
		if got := Geomean(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFigurePrinters(t *testing.T) {
	m := smallMatrix(t)
	printers := []struct {
		name  string
		print func(*bytes.Buffer)
		want  string
	}{
		{"fig1", func(b *bytes.Buffer) { PrintFigure1(b, m) }, "slowdown reduction"},
		{"fig6", func(b *bytes.Buffer) { PrintFigure6(b, m) }, "GMEAN"},
		{"fig7", func(b *bytes.Buffer) { PrintFigure7(b, m) }, "coverage"},
		{"fig8", func(b *bytes.Buffer) { PrintFigure8(b, m) }, "L2 accesses"},
		{"baselineap", func(b *bytes.Buffer) { PrintBaselineAP(b, m) }, "paper"},
	}
	for _, p := range printers {
		var buf bytes.Buffer
		p.print(&buf)
		out := buf.String()
		if !strings.Contains(out, p.want) {
			t.Errorf("%s output missing %q:\n%s", p.name, p.want, out)
		}
		for _, w := range m.Workloads {
			if p.name != "fig1" && !strings.Contains(out, w) {
				t.Errorf("%s output missing workload %s", p.name, w)
			}
		}
	}
}

func TestTable1Printer(t *testing.T) {
	var buf bytes.Buffer
	PrintTable1(&buf)
	out := buf.String()
	for _, want := range []string{"Reorder buffer", "352", "Load queue", "128",
		"48KiB", "2MiB", "16MiB", "1024 entries", "13.5 ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestNormalizationAgainstBaseline(t *testing.T) {
	m := smallMatrix(t)
	for _, w := range m.Workloads {
		if m.NormL1(w, secure.Unsafe, false) != 1.0 {
			t.Errorf("%s: baseline L1 normalization not 1", w)
		}
		if m.NormL2(w, secure.Unsafe, false) != 1.0 {
			t.Errorf("%s: baseline L2 normalization not 1", w)
		}
	}
}

func TestGetPanicsOnMissingCell(t *testing.T) {
	m := smallMatrix(t)
	defer func() {
		if recover() == nil {
			t.Error("Get on a missing cell should panic")
		}
	}()
	m.Get("not-in-matrix", secure.Unsafe, false)
}

func TestShapeChecksOnTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks need the full workload suite")
	}
	m, err := Run(Options{Scale: workload.ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	checks := CheckShape(m)
	if len(checks) < 8 {
		t.Fatalf("only %d shape checks produced", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("shape check %s failed: %s (measured: %s)", c.Name, c.Claim, c.Detail)
		}
	}
	var buf bytes.Buffer
	if failures := PrintShapeChecks(&buf, checks); failures > 0 {
		t.Errorf("%d failures reported", failures)
	}
	if !strings.Contains(buf.String(), "PASS") {
		t.Error("shape output missing verdicts")
	}
}

func TestWriteCSV(t *testing.T) {
	m := smallMatrix(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 2 workloads x 5 schemes x 2 AP
	if len(lines) != 1+20 {
		t.Errorf("CSV has %d lines, want 21", len(lines))
	}
	if !strings.HasPrefix(lines[0], "workload,scheme,ap,cycles") {
		t.Errorf("CSV header wrong: %s", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != strings.Count(lines[0], ",") {
			t.Errorf("ragged CSV row: %s", l)
		}
	}
}

// TestExtensionsAndSensitivityArtifacts checks the experiment table that
// `figures -only` looks names up in, and that an experiment's batch
// verifies each run and shares the engine's result cache with the matrix.
func TestExtensionsAndSensitivityArtifacts(t *testing.T) {
	byName := make(map[string]Experiment)
	for _, e := range Experiments {
		if _, dup := byName[e.Name]; dup {
			t.Errorf("two experiments named %q", e.Name)
		}
		byName[e.Name] = e
	}
	for _, name := range []string{"extensions", "sensitivity-rob", "sensitivity-mshrs",
		"sensitivity-predictor", "sensitivity-ports", "sensitivity-prefetch"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("no experiment %q", name)
		}
	}
	ports := byName["sensitivity-ports"]
	if _, err := ports.Run("nope", Options{Scale: workload.ScaleTest}); err == nil {
		t.Error("unknown workload should fail")
	}

	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	opts := Options{Scale: workload.ScaleTest, Verify: true, Engine: eng}
	rows, err := ports.Run("matrix_blocked", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 || rows[3].Label != "ports=2" {
		t.Fatalf("ports sweep rows = %d, rows[3] = %q", len(rows), rows[3].Label)
	}
	// The paper point (ports=2) runs the matrix's own DoM cells.
	before := eng.Stats().JobsRun
	opts.Workloads = []string{"matrix_blocked"}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().JobsRun - before; got != 10-3 {
		t.Errorf("matrix after the ports sweep ran %d jobs, want 7", got)
	}
	if m.Get("matrix_blocked", secure.DoM, true) != rows[5].Result {
		t.Error("matrix dom+AP cell differs from the ports=2 sweep point")
	}
}

// TestWarmStartMatchesCold pins the warm-start contract: a sweep forked
// from per-workload checkpoints reaches the same architectural results
// (checksum and instruction count) as the cold sweep in every cell, and
// Verify — which compares against the reference interpreter — passes
// unchanged.
func TestWarmStartMatchesCold(t *testing.T) {
	workloads := []string{"matrix_blocked", "tree_search"}
	cold, err := Run(Options{Scale: workload.ScaleTest, Workloads: workloads})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(Options{
		Scale:       workload.ScaleTest,
		Workloads:   workloads,
		Verify:      true,
		WarmupInsts: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range cold.Results {
		w, ok := warm.Results[k]
		if !ok {
			t.Fatalf("warm sweep missing cell %+v", k)
		}
		if w.Checksum != c.Checksum {
			t.Errorf("%+v: architectural divergence: cold %x, warm %x", k, c.Checksum, w.Checksum)
		}
		if w.Insts != c.Insts {
			t.Errorf("%+v: committed %d cold vs %d warm", k, c.Insts, w.Insts)
		}
	}
}
