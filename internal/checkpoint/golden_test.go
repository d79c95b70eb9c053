package checkpoint

import (
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"doppelganger/internal/isa"
	"doppelganger/internal/pipeline"
)

// goldenMeta and goldenState build a checkpoint with fully pinned contents.
// They are hand-built literals, not captures from a simulation: a capture's
// digest would shift with every timing change in the core, but this test
// must only fail when the *encoding* changes.
func goldenMeta() Meta {
	return Meta{
		ProgramName:  "golden",
		ProgramEntry: 1,
		Code: []isa.Instruction{
			{Op: isa.Nop},
			{Op: isa.LoadI, Dst: 1, Imm: 64},
			{Op: isa.Load, Dst: 2, Src1: 1, Imm: 8},
		},
		WarmScheme:  "unsafe",
		WarmupInsts: 40,
	}
}

func goldenState() *pipeline.CoreState {
	st := &pipeline.CoreState{
		Cycle:         123,
		SeqCtr:        45,
		FetchPC:       2,
		FetchHist:     0xbeef,
		CommittedPC:   []uint64{14, 13, 13},
		ShadowsOpened: 6,
		ShadowsPeak:   2,
		TaintedWrites: 9,
	}
	st.Regs[1] = 64
	st.Regs[2] = -5
	st.TaintRoots[2] = 7
	page := pipeline.MemPageState{Key: 0}
	page.Words[8] = -5
	page.Present[0] = 1 << 8
	st.Mem = []pipeline.MemPageState{page}
	st.Stats.Cycles = 123
	st.Stats.Committed = 40
	st.Stats.CommittedLoads = 11
	return st
}

func goldenCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	ck, err := New(goldenMeta(), goldenState())
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestEncodingGolden pins the checkpoint file encoding to an exact digest.
// The digest is the checkpoint's identity everywhere — engine cache keys,
// doppeld references, the -checkpoint-in cross-check — so an unintentional
// encoding change must fail loudly here. If you change the encoding ON
// PURPOSE, update the digest AND bump Version: old checkpoint files no
// longer decode to the same simulations.
func TestEncodingGolden(t *testing.T) {
	const want = "9255e371dd8bdeaef95b1d19bc0d98b704c01a7b05c1fd90dd7116b7933c2da9"
	ck := goldenCheckpoint(t)
	if got := ck.Digest(); got != want {
		t.Errorf("golden checkpoint digest:\n  got  %s\n  want %s\n(encoding changed — see test comment before updating)", got, want)
	}
	if ck.Digest() != digestOf(ck.Encode()) {
		t.Error("Digest() does not match the digest of Encode()")
	}
}

// TestEncodingSensitivity checks that every captured field perturbs the
// digest — a field the encoding silently drops would let two different
// simulation states share an identity.
func TestEncodingSensitivity(t *testing.T) {
	base := goldenCheckpoint(t).Digest()

	stateMut := map[string]func(*pipeline.CoreState){
		"cycle":       func(st *pipeline.CoreState) { st.Cycle++ },
		"seq_ctr":     func(st *pipeline.CoreState) { st.SeqCtr++ },
		"halted":      func(st *pipeline.CoreState) { st.Halted = true },
		"fetch_pc":    func(st *pipeline.CoreState) { st.FetchPC++ },
		"fetch_hist":  func(st *pipeline.CoreState) { st.FetchHist ^= 1 },
		"reg":         func(st *pipeline.CoreState) { st.Regs[1]++ },
		"taint_root":  func(st *pipeline.CoreState) { st.TaintRoots[2]++ },
		"mem_word":    func(st *pipeline.CoreState) { st.Mem[0].Words[8]++ },
		"mem_present": func(st *pipeline.CoreState) { st.Mem[0].Present[0] |= 2 },
		"mem_key":     func(st *pipeline.CoreState) { st.Mem[0].Key += 4096 },
		"committed":   func(st *pipeline.CoreState) { st.CommittedPC[0]++ },
		"stats":       func(st *pipeline.CoreState) { st.Stats.CommittedLoads++ },
		"shadows":     func(st *pipeline.CoreState) { st.ShadowsOpened++ },
		"taint_count": func(st *pipeline.CoreState) { st.TaintedWrites++ },
	}
	for field, mutate := range stateMut {
		st := goldenState()
		mutate(st)
		ck, err := New(goldenMeta(), st)
		if err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		if ck.Digest() == base {
			t.Errorf("perturbing state field %s did not change the digest", field)
		}
	}

	metaMut := map[string]func(*Meta){
		"program_name": func(m *Meta) { m.ProgramName = "golden2" },
		"entry":        func(m *Meta) { m.ProgramEntry = 0 },
		"code":         func(m *Meta) { m.Code[1].Imm = 65 },
		"warm_scheme":  func(m *Meta) { m.WarmScheme = "dom" },
		"warm_ap":      func(m *Meta) { m.WarmAP = true },
		"warmup_insts": func(m *Meta) { m.WarmupInsts = 41 },
	}
	for field, mutate := range metaMut {
		m := goldenMeta()
		mutate(&m)
		ck, err := New(m, goldenState())
		if err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		if ck.Digest() == base {
			t.Errorf("perturbing meta field %s did not change the digest", field)
		}
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	ck := goldenCheckpoint(t)
	dec, err := Decode(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Digest() != ck.Digest() {
		t.Errorf("digest changed across decode: %s vs %s", dec.Digest(), ck.Digest())
	}
	if !dec.Equal(ck) {
		t.Error("decoded checkpoint not Equal to the original")
	}
	if dec.Meta().ProgramName != "golden" || dec.State().Cycle != 123 {
		t.Errorf("decoded contents wrong: meta %+v, cycle %d", dec.Meta(), dec.State().Cycle)
	}
}

func TestFileRoundTrip(t *testing.T) {
	ck := goldenCheckpoint(t)
	path := filepath.Join(t.TempDir(), "golden.ckpt")
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != ck.Digest() {
		t.Errorf("digest changed across file round-trip: %s vs %s", got.Digest(), ck.Digest())
	}
}

// TestDecodeRejections is the refusal matrix: every way a checkpoint file
// can be wrong maps to the right sentinel error and never to a silently
// mis-restored core.
func TestDecodeRejections(t *testing.T) {
	good := goldenCheckpoint(t).Encode()
	clone := func() []byte { return append([]byte(nil), good...) }

	t.Run("bad magic", func(t *testing.T) {
		b := clone()
		copy(b, "NOPE")
		if _, err := Decode(b); !errors.Is(err, ErrNotCheckpoint) {
			t.Errorf("err = %v, want ErrNotCheckpoint", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(nil); !errors.Is(err, ErrNotCheckpoint) {
			t.Errorf("err = %v, want ErrNotCheckpoint", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		b := clone()
		binary.LittleEndian.PutUint32(b[4:], Version+1)
		_, err := Decode(b)
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
		// The error must tell the operator both versions.
		if got := err.Error(); !strings.Contains(got, "version") {
			t.Errorf("unhelpful version error: %q", got)
		}
	})
	t.Run("implausible section count", func(t *testing.T) {
		b := clone()
		binary.LittleEndian.PutUint32(b[8:], maxSections+1)
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		b := clone()
		b[len(b)/2] ^= 0x40
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{13, len(good) / 2, len(good) - 1} {
			if _, err := Decode(good[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Errorf("truncated at %d: err = %v, want ErrCorrupt", cut, err)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		b := append(clone(), 0)
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("missing core section", func(t *testing.T) {
		// Hand-craft a file holding only the meta section.
		ck := goldenCheckpoint(t)
		only := &Checkpoint{meta: ck.meta, state: ck.state}
		full := encode(only)
		// Re-encode with the section count dropped to 1 and the core
		// section's bytes removed: the meta section ends where the core
		// section's name length begins.
		metaEnd := 12 + 4 + len(sectionMeta) + 8 + metaPayloadLen(t, full) + 4
		b := append([]byte(nil), full[:metaEnd]...)
		binary.LittleEndian.PutUint32(b[8:], 1)
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
}

// metaPayloadLen reads the meta section's payload length out of an encoding.
func metaPayloadLen(t *testing.T, enc []byte) int {
	t.Helper()
	off := 12
	nameLen := int(binary.LittleEndian.Uint32(enc[off:]))
	off += 4 + nameLen
	return int(binary.LittleEndian.Uint64(enc[off:]))
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(goldenMeta(), nil); err == nil {
		t.Error("nil state accepted")
	}
	m := goldenMeta()
	m.Code = nil
	if _, err := New(m, goldenState()); err == nil {
		t.Error("empty code accepted")
	}
}

// TestEncodingCannotFail walks every type the encoding marshals and
// refuses any that json.Marshal could fail on: a float (it may be NaN), a
// channel, a func, an interface or map (either may hold one), or a custom
// marshaler (it may return an error). The encoding is built lazily inside
// Digest and Encode, which have no error to return it through.
func TestEncodingCannotFail(t *testing.T) {
	marshaler := reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textMarshaler := reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
	seen := make(map[reflect.Type]bool)
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		for _, m := range []reflect.Type{marshaler, textMarshaler} {
			if ty.Implements(m) || reflect.PointerTo(ty).Implements(m) {
				t.Errorf("%s (%v) has a custom marshaler", path, ty)
			}
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if f := ty.Field(i); f.IsExported() {
					walk(f.Type, path+"."+f.Name)
				}
			}
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		default:
			t.Errorf("%s is a %v, which json.Marshal can fail on", path, ty)
		}
	}
	walk(reflect.TypeOf(Meta{}), "Meta")
	walk(reflect.TypeOf(pipeline.CoreState{}), "CoreState")
}

// TestDigestConcurrent: the first Encode, Digest and Equal calls race to
// build the encoding; every caller must see the one result.
func TestDigestConcurrent(t *testing.T) {
	want := goldenCheckpoint(t).Digest()
	ck, other := goldenCheckpoint(t), goldenCheckpoint(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := ck.Digest(); got != want {
				t.Errorf("Digest = %s, want %s", got, want)
			}
			if got := digestOf(ck.Encode()); got != want {
				t.Errorf("digest of Encode = %s, want %s", got, want)
			}
			if !ck.Equal(other) {
				t.Error("identical checkpoints not Equal")
			}
		}()
	}
	wg.Wait()
}
