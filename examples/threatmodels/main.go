// Threat-model tour: runs one dependent-load workload under every scheme
// variant in the repository — the paper's three schemes plus the strict-NDA,
// Spectre-model-STT and undo-based Cleanup extensions — and under both
// recovery mechanisms (doppelganger loads vs. DoM value prediction).
//
//	go run ./examples/threatmodels
package main

import (
	"fmt"
	"log"

	"doppelganger/sim"
)

func main() {
	w, ok := sim.WorkloadByName("stream")
	if !ok {
		log.Fatal("stream workload missing")
	}
	prog := w.Build(sim.ScaleTest)

	type row struct {
		label string
		cfg   sim.Config
	}
	// Every scheme the simulator ships, with and without doppelganger
	// loads, then DoM's value-prediction alternative.
	var rows []row
	for _, s := range sim.AllSchemes() {
		rows = append(rows, row{s.String(), sim.Config{Scheme: s}})
		if s != sim.Unsafe {
			rows = append(rows, row{s.String() + " + doppelganger", sim.Config{Scheme: s, AddressPrediction: true}})
		}
	}
	vp := sim.DefaultCoreConfig()
	vp.ValuePrediction = true
	rows = append(rows, row{"dom + value prediction", sim.Config{Scheme: sim.DoM, Core: &vp}})

	fmt.Println("One workload (the gated dependent gather), every protection level.")
	fmt.Println("Stronger threat models cost more; doppelganger loads recover MLP")
	fmt.Println("inside each threat model without weakening it.")
	fmt.Println()
	fmt.Printf("%-28s %10s %8s %12s\n", "configuration", "cycles", "IPC", "vs baseline")
	var base uint64
	for _, r := range rows {
		res, err := sim.Run(prog, r.cfg)
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = res.Cycles
		}
		fmt.Printf("%-28s %10d %8.2f %11.1f%%\n",
			r.label, res.Cycles, res.IPC, float64(base)/float64(res.Cycles)*100)
	}
	fmt.Println()
	fmt.Println("Threat models, weakest to strongest:")
	fmt.Println("  stt-spectre  control speculation only (Spectre universal read)")
	fmt.Println("  stt          adds memory-dependence speculation (futuristic model)")
	fmt.Println("  nda-p        blocks all speculative propagation of loaded values")
	fmt.Println("  nda-s        strict: values release only at the head of the window")
	fmt.Println("  dom          hides the memory hierarchy, protects register secrets")
	fmt.Println("cleanup sits outside this order: it undoes speculative cache changes on squash.")
}
