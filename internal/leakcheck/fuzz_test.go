package leakcheck

import (
	"context"
	"testing"
)

// FuzzLeakage is the native fuzz entry: the fuzzer mutates raw gadget
// parameters (normalized into the supported ranges), and the oracle
// asserts that no intact secure scheme — with or without doppelganger
// loads — distinguishes the differential pair. A failing input is a
// micro-architectural information leak in one of the protection schemes.
//
// Run locally with:
//
//	go test -run '^$' -fuzz FuzzLeakage -fuzztime 60s ./internal/leakcheck
func FuzzLeakage(f *testing.F) {
	// Corpus: every kind, feature corners, and a couple of Generate points.
	f.Add(int64(1), uint8(KindBoundsCheck), 12, 2, 3, 1, false, 0, 0, 0, 0, uint8(0xcf), uint8(0x26))
	f.Add(int64(2), uint8(KindStoreBypass), 8, 0, 0, 0, false, 0, 0, 0, 0, uint8(0x80), uint8(0x81))
	f.Add(int64(3), uint8(KindBoundsCheck), maxRounds, maxShadowDepth, maxChainLen, maxTrainLoops, true, 0, 0, 0, 0, uint8(0xff), uint8(0x18))
	f.Add(int64(4), uint8(KindStoreBypass), minRounds, maxShadowDepth, 2, 1, true, 0, 0, 0, 0, uint8(0x55), uint8(0xaa))
	f.Add(int64(5), uint8(KindBranchPoison), 12, 0, 2, 1, false, minAliasTrainings, 3, 0, 0, uint8(0xcf), uint8(0x26))
	f.Add(int64(6), uint8(KindBranchPoison), maxRounds, 0, 0, 0, true, maxAliasTrainings, maxAliasPad, 0, 0, uint8(0x41), uint8(0xf0))
	f.Add(int64(7), uint8(KindContention), 10, 1, 0, 0, false, 0, 0, minPressureWidth, 0, uint8(0x55), uint8(0xaa))
	f.Add(int64(8), uint8(KindContention), maxRounds, maxShadowDepth, 3, 1, true, 0, 0, maxPressureWidth, 7, uint8(0x2f), uint8(0xec))

	cfgs := DefaultConfigs()
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, rounds, depth, chain, train int, double bool, alias, pad, width, bit int, sa, sb uint8) {
		p := Params{
			Seed:           seed,
			Kind:           Kind(kind),
			Rounds:         rounds,
			ShadowDepth:    depth,
			ChainLen:       chain,
			TrainLoops:     train,
			DoubleTransmit: double,
			AliasTrainings: alias,
			AliasPad:       pad,
			PressureWidth:  width,
			SecretBit:      bit,
			SecretA:        sa,
			SecretB:        sb,
		}.Normalize()
		ctx := context.Background()
		for _, cfg := range cfgs {
			if !cfg.Secure() {
				continue
			}
			leak, err := Check(ctx, p, cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg, err)
			}
			if leak != nil {
				t.Errorf("LEAK under %s via %v\ndigest A: %+v\ndigest B: %+v\nreproducer:\n%s",
					cfg, leak.Components, leak.ObsA.Micro, leak.ObsB.Micro, p.Disassemble())
			}
		}
	})
}
