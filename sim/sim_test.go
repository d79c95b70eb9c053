package sim_test

import (
	"strings"
	"testing"

	"doppelganger/sim"
)

const quickSource = `
.reg r1 = 0
        loadi r2, 100
        loadi r3, 0
loop:   add   r3, r3, r1
        addi  r1, r1, 1
        blt   r1, r2, loop
        loadi r4, 0x1000
        store r3, [r4]
        halt
`

func TestRunQuickProgram(t *testing.T) {
	p := sim.MustAssemble("quick", quickSource)
	for _, scheme := range sim.Schemes() {
		res, err := sim.Run(p, sim.Config{Scheme: scheme, AddressPrediction: true})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.Insts == 0 || res.Cycles == 0 || res.IPC <= 0 {
			t.Errorf("%v: empty result %+v", scheme, res)
		}
		if res.Scheme != scheme || !res.AP || res.Program != "quick" {
			t.Errorf("%v: result metadata wrong", scheme)
		}
	}
}

func TestRunMatchesInterpreter(t *testing.T) {
	p := sim.MustAssemble("quick", quickSource)
	ref := sim.Interpret(p, 10_000)
	if !ref.Halted {
		t.Fatal("reference did not halt")
	}
	core, err := sim.NewCore(p, sim.Config{Scheme: sim.DoM, AddressPrediction: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Run(0, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if core.ArchState().Checksum() != ref.Checksum() {
		t.Error("core disagrees with interpreter")
	}
	if core.ReadMem(0x1000) != 4950 {
		t.Errorf("mem[0x1000] = %d, want 4950", core.ReadMem(0x1000))
	}
}

func TestParseScheme(t *testing.T) {
	want := map[string]sim.Scheme{
		"unsafe": sim.Unsafe, "nda-p": sim.NDAP, "stt": sim.STT, "dom": sim.DoM,
		"nda-s": sim.NDAS, "stt-spectre": sim.STTSpectre, "cleanup": sim.Cleanup,
	}
	for name, s := range want {
		if got, err := sim.ParseScheme(name); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", name, got, err, s)
		}
	}
	if _, err := sim.ParseScheme("nope"); err == nil {
		t.Error("ParseScheme should reject unknown names")
	}
}

func TestRunMaxInsts(t *testing.T) {
	p := sim.MustAssemble("spin", "loop: jmp loop\nhalt")
	res, err := sim.Run(p, sim.Config{MaxInsts: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts < 1000 {
		t.Errorf("committed %d, want >= 1000", res.Insts)
	}
}

func TestRunCycleLimitError(t *testing.T) {
	p := sim.MustAssemble("spin", "loop: jmp loop\nhalt")
	_, err := sim.Run(p, sim.Config{MaxCycles: 500})
	if err == nil || !strings.Contains(err.Error(), "cycle limit") {
		t.Errorf("expected cycle-limit error, got %v", err)
	}
}

func TestCustomCoreConfig(t *testing.T) {
	p := sim.MustAssemble("quick", quickSource)
	cc := sim.DefaultCoreConfig()
	cc.ROBSize = 32
	cc.IQSize = 16
	res, err := sim.Run(p, sim.Config{Core: &cc})
	if err != nil {
		t.Fatal(err)
	}
	// A smaller window can only slow things down.
	base, err := sim.Run(p, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < base.Cycles {
		t.Errorf("small window (%d cycles) beat the default (%d)", res.Cycles, base.Cycles)
	}
}

func TestBuilderAPI(t *testing.T) {
	b := sim.NewBuilder("api")
	b.LoadI(1, 7)
	b.MulI(2, 1, 6)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Interpret(p, 100)
	if st.Regs[2] != 42 {
		t.Errorf("r2 = %d, want 42", st.Regs[2])
	}
}

func TestTable1Defaults(t *testing.T) {
	cfg := sim.DefaultCoreConfig()
	// Pin the paper's Table 1 values.
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"decode width", cfg.DecodeWidth, 5},
		{"issue width", cfg.IssueWidth, 8},
		{"commit width", cfg.CommitWidth, 8},
		{"IQ", cfg.IQSize, 160},
		{"ROB", cfg.ROBSize, 352},
		{"LQ", cfg.LQSize, 128},
		{"SQ", cfg.SQSize, 72},
		{"predictor entries", cfg.Stride.Entries, 1024},
		{"predictor ways", cfg.Stride.Ways, 8},
		{"L1D size", cfg.Memory.L1D.SizeBytes, 48 << 10},
		{"L1D ways", cfg.Memory.L1D.Ways, 12},
		{"L1 MSHRs", cfg.Memory.L1MSHRs, 16},
		{"L2 size", cfg.Memory.L2.SizeBytes, 2 << 20},
		{"L2 ways", cfg.Memory.L2.Ways, 8},
		{"L3 size", cfg.Memory.L3.SizeBytes, 16 << 20},
		{"L3 ways", cfg.Memory.L3.Ways, 16},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (Table 1)", c.name, c.got, c.want)
		}
	}
	if cfg.Memory.L1D.Latency != 5 || cfg.Memory.L2.Latency != 15 || cfg.Memory.L3.Latency != 40 {
		t.Error("cache latencies deviate from Table 1")
	}
}
