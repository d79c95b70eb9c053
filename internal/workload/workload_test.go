package workload

import (
	"testing"

	"doppelganger/internal/program"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 14 {
		t.Errorf("suite has %d workloads, want 14: %v", len(names), names)
	}
	for _, n := range names {
		w, ok := ByName(n)
		if !ok {
			t.Fatalf("ByName(%q) failed", n)
		}
		if w.Spec == "" || w.Description == "" || w.Build == nil {
			t.Errorf("%s: incomplete registration", n)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName should fail for unknown workloads")
	}
}

func TestAllWorkloadsBuildAndValidate(t *testing.T) {
	for _, w := range All() {
		p := w.Build(ScaleTest)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if p.Name != w.Name {
			t.Errorf("program name %q != workload name %q", p.Name, w.Name)
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range All() {
		a := program.Run(w.Build(ScaleTest), 50_000_000)
		b := program.Run(w.Build(ScaleTest), 50_000_000)
		if !a.Halted || !b.Halted {
			t.Errorf("%s: did not halt", w.Name)
			continue
		}
		if a.Checksum() != b.Checksum() || a.Insts != b.Insts {
			t.Errorf("%s: not deterministic", w.Name)
		}
	}
}

func TestWorkloadsHaltWithinBudget(t *testing.T) {
	for _, w := range All() {
		st := program.Run(w.Build(ScaleTest), 1_000_000)
		if !st.Halted {
			t.Errorf("%s: exceeded 1M instructions at test scale (%d committed)", w.Name, st.Insts)
		}
		if st.Insts < 5_000 {
			t.Errorf("%s: only %d instructions at test scale — too small to measure", w.Name, st.Insts)
		}
	}
}

func TestFullScaleBiggerThanTest(t *testing.T) {
	for _, w := range All() {
		small := program.Run(w.Build(ScaleTest), 100_000_000)
		big := program.Run(w.Build(ScaleFull), 100_000_000)
		if big.Insts <= small.Insts {
			t.Errorf("%s: full scale (%d insts) not larger than test scale (%d)",
				w.Name, big.Insts, small.Insts)
		}
	}
}

func TestPickScales(t *testing.T) {
	if pick(ScaleTest, 1, 2) != 1 || pick(ScaleFull, 1, 2) != 2 {
		t.Error("pick wrong")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(7), newRNG(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	if newRNG(0).next() == 0 {
		t.Error("zero seed must still produce values")
	}
	p := newRNG(3).perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatal("perm is not a permutation")
		}
		seen[v] = true
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	register(Workload{Name: "stream", Build: buildStream})
}

func TestParseScaleRoundTrip(t *testing.T) {
	for _, s := range []Scale{ScaleTest, ScaleFull} {
		if got, err := ParseScale(s.String()); err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if got, err := ParseScale(""); err != nil || got != ScaleFull {
		t.Errorf(`ParseScale("") = %v, %v; want full`, got, err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error(`ParseScale("huge") accepted`)
	}
}

func TestProgramMemoized(t *testing.T) {
	a, err := Program("stream", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := Program("stream", ScaleTest); b != a {
		t.Error("a second Program call rebuilt the image")
	}
	if full, _ := Program("stream", ScaleFull); full == a {
		t.Error("two scales share one image")
	}
	if _, err := Program("nope", ScaleTest); err == nil {
		t.Error("unknown workload accepted")
	}
}
