package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"sync"
	"testing"

	"doppelganger/internal/checkpoint"
	"doppelganger/internal/isa"
	"doppelganger/internal/pipeline"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// goldenProgram is a small fixed program image exercising every field the
// fingerprint covers: name, entry, instructions (all operand slots), an
// initial register, and a multi-entry initial memory image.
func goldenProgram() *sim.Program {
	p := &sim.Program{
		Name:  "golden",
		Entry: 1,
		Code: []isa.Instruction{
			{Op: isa.Nop},
			{Op: isa.LoadI, Dst: 1, Imm: 64},
			{Op: isa.Load, Dst: 2, Src1: 1, Imm: 8},
		},
		InitMem: map[uint64]int64{72: -5, 64: 7},
	}
	p.InitRegs[3] = 42
	return p
}

// goldenCheckpoint builds a synthetic checkpoint with fully pinned contents,
// so its digest — and therefore the cache key of any job referencing it — is
// deterministic. The core state is hand-built rather than captured from a
// simulation on purpose: a capture's digest would shift with every timing
// change, but the key encoding must only shift when the encoding itself does.
func goldenCheckpoint(t *testing.T) *sim.Checkpoint {
	t.Helper()
	p := goldenProgram()
	st := &pipeline.CoreState{
		Cycle:       123,
		SeqCtr:      45,
		FetchPC:     1,
		CommittedPC: []uint64{0, 1, 2},
	}
	st.Stats.Committed = 40
	ck, err := checkpoint.New(checkpoint.Meta{
		ProgramName:  p.Name,
		ProgramEntry: p.Entry,
		Code:         p.Code,
		WarmScheme:   "unsafe",
		WarmupInsts:  40,
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// secretProgram is goldenProgram with its first memory word labelled
// secret.
func secretProgram() *sim.Program {
	p := goldenProgram()
	p.Secrets = []sim.SecretRegion{{Base: 64, Len: 8}}
	return p
}

type goldenJob struct {
	name string
	job  Job
	want Key
}

// goldenJobs returns the pinned jobs, each on a program never keyed before.
func goldenJobs(t *testing.T) []goldenJob {
	return []goldenJob{
		{
			name: "nil program, zero config",
			job:  Job{},
			want: "131312a89f192192dbab37d5dbe6e489e214d9f1242ae5e9d568c483f0a2e8a8",
		},
		{
			name: "golden program, zero config",
			job:  Job{Program: goldenProgram()},
			want: "b79cbacfceadd61b943b2561c8d01354371fbacbafeab69d7a6e5cc8b23db491",
		},
		{
			name: "golden program, dom with address prediction",
			job: Job{
				Program: goldenProgram(),
				Config:  sim.Config{Scheme: sim.DoM, AddressPrediction: true},
			},
			want: "204dce054a2c79032968a9d903c8b07d2a38d370e7cd2839f38426e1f2d29652",
		},
		{
			name: "golden program, run bounds",
			job: Job{
				Program: goldenProgram(),
				Config:  sim.Config{MaxInsts: 1000, MaxCycles: 5000},
			},
			want: "c6dcc01827230e1cdd282688cfc3faac25d280294206e7effeb1afd3fb2157cf",
		},
		{
			// The first four cases predate checkpoints and their digests are
			// unchanged: a nil Checkpoint contributes nothing to the key, so
			// cold-run keys (and results stored under them) survive the
			// feature's introduction.
			name: "golden program, warm-started from golden checkpoint",
			job: Job{
				Program:    goldenProgram(),
				Config:     sim.Config{Scheme: sim.DoM, AddressPrediction: true},
				Checkpoint: goldenCheckpoint(t),
			},
			want: "c77f0790d1d7e2d0d40d43683f7e7ff72e2a99bb2ceddd0a8147aff073bb9479",
		},
		{
			// Like Checkpoint, an empty Observe set contributes nothing, so
			// every blind job's key (all cases above) predates and survives
			// observed jobs. The clause set is canonicalised before hashing:
			// listing CTSpec once, twice, or alongside a covered clause in
			// any order yields this same key.
			name: "golden program, full-lattice observation",
			job: Job{
				Program: goldenProgram(),
				Config:  sim.Config{Scheme: sim.DoM, AddressPrediction: true},
				Observe: []sim.Clause{sim.CTSpec},
			},
			want: "d24edbd738db76a9f75f4e7bb1be22a09c4b9ac465ee3f4383339be0c0691a95",
		},
		{
			// Secret labels enter only observed keys of labelled programs,
			// so every case above keeps its digest.
			name: "secret-labelled program, full-lattice observation",
			job: Job{
				Program: secretProgram(),
				Config:  sim.Config{Scheme: sim.DoM, AddressPrediction: true},
				Observe: []sim.Clause{sim.CTSpec},
			},
			want: "47c16a02b4274fce0d7335f2e38d2d0920ed7e1edfb5cb98bcbcdfebb66674f9",
		},
	}
}

// TestKeyGolden pins the canonical cache-key encoding to exact digests.
// These keys are the cluster's sharding function, the persistent result
// tier's record keys, and the coordinator/worker version-skew cross-check:
// a stored result tier written by one build must be readable by the next,
// so an unintentional encoding change must fail loudly here. If you change
// the encoding ON PURPOSE, update these digests AND bump the store format
// version (internal/cluster/store) — old stored keys no longer name the
// same simulations.
func TestKeyGolden(t *testing.T) {
	for _, c := range goldenJobs(t) {
		if got := c.job.Key(); got != c.want {
			t.Errorf("%s:\n  got  %s\n  want %s\n(cache-key encoding changed — see test comment before updating)",
				c.name, got, c.want)
		}
	}
}

// referenceKey is the key encoding written out in one pass, with no saved
// hash state: the program image, the resolved configuration, the
// checkpoint digest, and the clause set with, for a labelled program, its
// secret regions.
func referenceKey(j Job) Key {
	var w bytes.Buffer
	if p := j.Program; p == nil {
		w.WriteString("prog|nil")
	} else {
		fmt.Fprintf(&w, "prog|%s|entry=%d|code=%d|", p.Name, p.Entry, len(p.Code))
		put := func(v uint64) { w.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		for _, in := range p.Code {
			put(uint64(in.Op))
			put(uint64(in.Dst))
			put(uint64(in.Src1))
			put(uint64(in.Src2))
			put(uint64(in.Imm))
		}
		for _, r := range p.InitRegs {
			put(uint64(r))
		}
		addrs := make([]uint64, 0, len(p.InitMem))
		for a := range p.InitMem {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		for _, a := range addrs {
			put(a)
			put(uint64(p.InitMem[a]))
		}
	}
	core, err := json.Marshal(j.Config.ResolvedCore())
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(&w, "|cfg|insts=%d|cycles=%d|%s", j.Config.MaxInsts, j.Config.MaxCycles, core)
	if j.Checkpoint != nil {
		fmt.Fprintf(&w, "|ckpt|%s|", j.Checkpoint.Digest())
	}
	if len(j.Observe) > 0 {
		w.WriteString("|obs|")
		for _, c := range sim.CanonicalClauses(j.Observe) {
			w.WriteString(c.String() + ",")
		}
		w.WriteString("|")
		if j.Program != nil && len(j.Program.Secrets) > 0 {
			w.WriteString("secrets|")
			for _, r := range j.Program.Secrets {
				fmt.Fprintf(&w, "%d+%d,", r.Base, r.Len)
			}
			w.WriteString("|")
		}
	}
	sum := sha256.Sum256(w.Bytes())
	return Key(hex.EncodeToString(sum[:]))
}

// TestKeyMatchesReference checks the saved image hash state against the
// one-pass reference encoding for every golden job: the first key, a
// repeated key, and eight goroutines keying one fresh program at once.
func TestKeyMatchesReference(t *testing.T) {
	for _, c := range goldenJobs(t) {
		want := referenceKey(c.job)
		if got := c.job.Key(); got != want {
			t.Errorf("%s: first key %s, reference %s", c.name, got, want)
		}
		if got := c.job.Key(); got != want {
			t.Errorf("%s: repeated key %s, reference %s", c.name, got, want)
		}
	}
	for _, c := range goldenJobs(t) {
		want := referenceKey(c.job)
		// referenceKey reads the program without keying it, so the
		// goroutines below race to make the first key.
		const goroutines = 8
		keys := make([]Key, goroutines)
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := range keys {
			go func(g int) {
				defer wg.Done()
				keys[g] = c.job.Key()
			}(g)
		}
		wg.Wait()
		for g, got := range keys {
			if got != want {
				t.Errorf("%s: goroutine %d keyed %s, reference %s", c.name, g, got, want)
			}
		}
	}
}

// TestRepeatedKeyAllocations bounds what a repeated key of a test-scale
// stream job allocates. Its first key allocates about 140 KB, sorting and
// encoding the image; a repeated key resumes from the saved hash state and
// encodes only the configuration.
func TestRepeatedKeyAllocations(t *testing.T) {
	w, ok := workload.ByName("stream")
	if !ok {
		t.Fatal("no stream workload")
	}
	j := Job{Program: w.Build(workload.ScaleTest), Config: sim.Config{Scheme: sim.DoM, AddressPrediction: true}}
	j.Key()
	const keys = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < keys; i++ {
		j.Key()
	}
	runtime.ReadMemStats(&after)
	const limit = 16 << 10
	if per := (after.TotalAlloc - before.TotalAlloc) / keys; per > limit {
		t.Errorf("a repeated key allocated %d bytes, want at most %d", per, limit)
	}
}

func TestKeyShape(t *testing.T) {
	hex64 := regexp.MustCompile(`^[0-9a-f]{64}$`)
	if key := (Job{Program: goldenProgram()}).Key(); !hex64.MatchString(string(key)) {
		t.Errorf("key %q is not 64 lowercase hex chars", key)
	}
}

// TestKeyExplicitDefaultCoreMatchesNil pins the resolution rule: a job
// spelling out the default core config hashes identically to one leaving
// Core nil, so callers can't accidentally fork the cache by being explicit.
func TestKeyExplicitDefaultCoreMatchesNil(t *testing.T) {
	core := sim.DefaultCoreConfig()
	implicit := Job{Program: goldenProgram(), Config: sim.Config{Scheme: sim.STT}}
	explicit := Job{Program: goldenProgram(), Config: sim.Config{Scheme: sim.STT, Core: &core}}
	if implicit.Key() != explicit.Key() {
		t.Errorf("explicit default core forked the key:\n  implicit %s\n  explicit %s",
			implicit.Key(), explicit.Key())
	}
}

// TestKeySensitivity checks that each identity-bearing field perturbs the
// key, and that non-identity fields (Timeout) and map iteration order
// do not.
func TestKeySensitivity(t *testing.T) {
	base := Job{Program: goldenProgram()}.Key()

	perturb := map[string]func(*sim.Program){
		"name":      func(p *sim.Program) { p.Name = "golden2" },
		"entry":     func(p *sim.Program) { p.Entry = 0 },
		"opcode":    func(p *sim.Program) { p.Code[2].Op = isa.Nop },
		"immediate": func(p *sim.Program) { p.Code[1].Imm = 65 },
		"register":  func(p *sim.Program) { p.InitRegs[3] = 43 },
		"memory":    func(p *sim.Program) { p.InitMem[64] = 8 },
	}
	for field, mutate := range perturb {
		p := goldenProgram()
		mutate(p)
		if got := (Job{Program: p}).Key(); got == base {
			t.Errorf("perturbing %s did not change the key", field)
		}
	}

	if got := (Job{Program: goldenProgram(), Timeout: 1e9}).Key(); got != base {
		t.Error("Timeout leaked into the key; it is an execution detail, not identity")
	}

	reordered := goldenProgram()
	reordered.InitMem = map[uint64]int64{64: 7, 72: -5}
	if got := (Job{Program: reordered}).Key(); got != base {
		t.Error("InitMem insertion order leaked into the key")
	}

	if got := (Job{Program: goldenProgram(), Config: sim.Config{AddressPrediction: true}}).Key(); got == base {
		t.Error("AddressPrediction did not change the key")
	}

	ck := goldenCheckpoint(t)
	warm := Job{Program: goldenProgram(), Checkpoint: ck}.Key()
	if warm == base {
		t.Error("Checkpoint did not change the key; a warm start must never share a cold run's cached result")
	}
	if again := (Job{Program: goldenProgram(), Checkpoint: ck}).Key(); again != warm {
		t.Error("same checkpoint produced different keys")
	}
	st2 := &pipeline.CoreState{Cycle: 124}
	p := goldenProgram()
	ck2, err := checkpoint.New(checkpoint.Meta{
		ProgramName:  p.Name,
		ProgramEntry: p.Entry,
		Code:         p.Code,
		WarmScheme:   "unsafe",
		WarmupInsts:  40,
	}, st2)
	if err != nil {
		t.Fatal(err)
	}
	if got := (Job{Program: goldenProgram(), Checkpoint: ck2}).Key(); got == warm {
		t.Error("checkpoints with different captured state produced the same key")
	}

	observed := Job{Program: goldenProgram(), Observe: []sim.Clause{sim.CTSpec}}.Key()
	if observed == base {
		t.Error("Observe did not change the key; an observed run must never share a blind run's cached result")
	}
	if got := (Job{Program: goldenProgram(), Observe: []sim.Clause{sim.ArchSeq}}).Key(); got == observed {
		t.Error("different observed clause sets produced the same key")
	}
	if got := (Job{Program: secretProgram()}).Key(); got != base {
		t.Error("secret labels changed a blind key; only the observation reads them")
	}
	if got := (Job{Program: secretProgram(), Observe: []sim.Clause{sim.CTSpec}}).Key(); got == observed {
		t.Error("secret labels did not change an observed key; the observation's taint run reads them")
	}
	canon := Job{Program: goldenProgram(), Observe: []sim.Clause{sim.CTSpec, sim.CTSpec, sim.ArchSeq, sim.CTSpec}}.Key()
	reorderedObs := Job{Program: goldenProgram(), Observe: []sim.Clause{sim.ArchSeq, sim.CTSpec, sim.CTSpec, sim.CTSpec}}.Key()
	if canon != reorderedObs {
		t.Error("clause order/duplication leaked into the key; Observe must canonicalise before hashing")
	}
}
