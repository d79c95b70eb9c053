package pipeline

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"doppelganger/internal/secure"
)

// poison sets every field reachable in v, which must be addressable, to a
// value a fresh slot never holds: true, a non-zero bit pattern, or a
// pointer to a new zero value. Unexported fields are reached through
// unsafe, so a field added later is poisoned too.
func poison(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			poison(t, reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			poison(t, v.Index(i))
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-0x5a5a5a5a5a5a5a5b)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0xa5a5a5a5a5a5a5a5)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("poison: unhandled field kind %v", v.Kind())
	}
}

// slotsDiffer compares the live entries of two cores' ROB, load queue and
// store queue, oldest first, and describes the first difference. Queue
// entries compare with their uop pointer replaced by the uop's sequence
// number.
func slotsDiffer(a, b *Core) string {
	if a.rob.len() != b.rob.len() || a.lq.len() != b.lq.len() || a.sq.len() != b.sq.len() {
		return fmt.Sprintf("occupancy rob/lq/sq %d/%d/%d, want %d/%d/%d",
			a.rob.len(), a.lq.len(), a.sq.len(), b.rob.len(), b.lq.len(), b.sq.len())
	}
	for i := 0; i < a.rob.len(); i++ {
		if x, y := a.robEntries[a.rob.at(i)], b.robEntries[b.rob.at(i)]; x != y {
			return fmt.Sprintf("ROB entry\n%+v\nwant\n%+v", x, y)
		}
	}
	for i := 0; i < a.lq.len(); i++ {
		x, y := a.lqEntries[a.lq.at(i)], b.lqEntries[b.lq.at(i)]
		xs, ys := x.u.seq, y.u.seq
		x.u, y.u = nil, nil
		if xs != ys || x != y {
			return fmt.Sprintf("LQ entry of seq %d\n%+v\nwant seq %d\n%+v", xs, x, ys, y)
		}
	}
	for i := 0; i < a.sq.len(); i++ {
		x, y := a.sqEntries[a.sq.at(i)], b.sqEntries[b.sq.at(i)]
		xs, ys := x.u.seq, y.u.seq
		x.u, y.u = nil, nil
		if xs != ys || x != y {
			return fmt.Sprintf("SQ entry of seq %d\n%+v\nwant seq %d\n%+v", xs, x, ys, y)
		}
	}
	return ""
}

// TestDispatchInitialisesReusedSlots pins that dispatch writes every field
// of the ROB, load-queue and store-queue slot it takes: Reset leaves the
// last run's entries in place, and the rings reuse their slots within a
// run. Every slot of one core is poisoned before its run; stepped in
// lockstep with a fresh core, its live entries must equal the fresh
// core's after every cycle, and its run must end the same.
func TestDispatchInitialisesReusedSlots(t *testing.T) {
	machines := map[string]func(*Config){
		"unsafe":     func(*Config) {},
		"dom+ap":     func(c *Config) { c.Scheme, c.AddressPrediction = secure.DoM, true },
		"stt+ap":     func(c *Config) { c.Scheme, c.AddressPrediction = secure.STT, true },
		"cleanup+ap": func(c *Config) { c.Scheme, c.AddressPrediction = secure.Cleanup, true },
		"nda-p/exceptions+memdep": func(c *Config) {
			c.Scheme, c.ExceptionShadows, c.MemDepPrediction = secure.NDAP, true, true
		},
		"dom+vp": func(c *Config) { c.Scheme, c.ValuePrediction = secure.DoM, true },
	}
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	for name, set := range machines {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			set(&cfg)
			for seed := 1; seed <= seeds; seed++ {
				p := randomProgram(uint64(seed)*0x51ed27, 14+seed, 40)
				used, err := New(cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, slots := range []any{used.robEntries, used.lqEntries, used.sqEntries} {
					s := reflect.ValueOf(slots)
					for i := 0; i < s.Len(); i++ {
						poison(t, s.Index(i))
					}
				}
				fresh, err := New(cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				for !fresh.Halted() {
					if fresh.Cycle() > 1_000_000 {
						t.Fatalf("seed %d: no halt", seed)
					}
					used.Step()
					fresh.Step()
					if d := slotsDiffer(used, fresh); d != "" {
						t.Fatalf("seed %d, cycle %d: the poisoned core's %s", seed, fresh.Cycle(), d)
					}
				}
				if !used.Halted() || used.Stats != fresh.Stats || used.ArchState().Checksum() != fresh.ArchState().Checksum() {
					t.Fatalf("seed %d: the poisoned core's run ended otherwise than the fresh core's", seed)
				}
			}
		})
	}
}
