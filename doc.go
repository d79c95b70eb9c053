// Package doppelganger reproduces "Doppelganger Loads: A Safe,
// Complexity-Effective Optimization for Secure Speculation Schemes"
// (Kvalsvik, Aimoniotis, Kaxiras, Själander — ISCA 2023) as a
// self-contained Go library.
//
// The public API lives in the sim package; the cycle-level out-of-order
// core, memory hierarchy, secure speculation schemes (NDA-P, STT,
// Delay-on-Miss), shared stride predictor/prefetcher, and synthetic
// benchmark suite live under internal/. internal/harness runs every table
// and figure of the paper's evaluation, plus the extensions appendix and
// the sensitivity sweeps; cmd/figures prints them as text reports.
package doppelganger
