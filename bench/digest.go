package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
)

// digester folds a workload's simulated outputs — every statistic,
// checksum, leak set and campaign summary — into one sim_digest. Two runs
// at the same seed and size print the same digest unless the model's
// behaviour changed, which is how -compare tells a speed-up from a model
// edit.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

// add folds in a label and the JSON encoding of v.
func (d *digester) add(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Everything folded in is plain exported data.
		panic(fmt.Sprintf("bench: digest of %s: %v", label, err))
	}
	fmt.Fprintf(d.h, "%s=%d:", label, len(b))
	d.h.Write(b)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// combineDigests folds the digests of a run's parts, in order, into one.
func combineDigests(ds []string) string {
	if len(ds) == 1 {
		return ds[0]
	}
	d := newDigester()
	d.add("parts", ds)
	return d.sum()
}
