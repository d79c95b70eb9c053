// Command doppelbench is a load generator for doppeld (any role): it fires
// a configurable mix of /v1/run requests — or repeated /v1/sweep matrices —
// at a target for a fixed duration and reports throughput, a latency
// distribution (p50/p90/p99 plus an ASCII histogram), result-tier sources,
// and admission-control behaviour (429s and Retry-After).
//
//	doppelbench -target http://127.0.0.1:9000 -duration 10s -concurrency 8
//	doppelbench -target http://127.0.0.1:9000 -rps 50 \
//	    -workloads stream,pointer_chase -schemes unsafe,dom
//	doppelbench -target http://127.0.0.1:9000 -mode sweep -concurrency 2
//
// Each logical client tags requests with X-Doppel-Client so the
// coordinator's per-client rate limiting applies per bench client, not per
// source host.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"doppelganger/internal/secure"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Fatalf("doppelbench: %v", err)
	}
	rep := runBench(ctx, cfg)
	rep.write(os.Stdout)
	if rep.Completed == 0 {
		os.Exit(1)
	}
}

// config is one bench run, fully resolved from flags.
type config struct {
	Target      string
	Mode        string // "run" or "sweep"
	Duration    time.Duration
	Concurrency int
	RPS         float64 // total request pacing across all clients (0 = unpaced)
	Workloads   []string
	Schemes     []string
	AP          string // "both", "on", "off"
	Scale       string
	Client      string // X-Doppel-Client prefix; each goroutine appends -N
	Seed        int64
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("doppelbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.Target, "target", "http://127.0.0.1:8080", "doppeld base URL")
	fs.StringVar(&cfg.Mode, "mode", "run", `request mode: "run" (single cells) or "sweep" (whole matrices)`)
	fs.DurationVar(&cfg.Duration, "duration", 10*time.Second, "how long to generate load")
	fs.IntVar(&cfg.Concurrency, "concurrency", 4, "concurrent logical clients")
	fs.Float64Var(&cfg.RPS, "rps", 0, "total request rate across clients (0 = as fast as possible)")
	workloads := fs.String("workloads", "stream,pointer_chase,stencil", "comma-separated workload mix")
	schemes := fs.String("schemes", strings.Join(secure.Names(secure.Schemes()), ","), "comma-separated scheme mix")
	fs.StringVar(&cfg.AP, "ap", "both", `address prediction: "both", "on" or "off"`)
	fs.StringVar(&cfg.Scale, "scale", "test", `workload scale: "test" or "full"`)
	fs.StringVar(&cfg.Client, "client", "doppelbench", "X-Doppel-Client prefix (per-goroutine suffix added)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "mix-selection seed (same seed, same request sequence)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg.Workloads = splitList(*workloads)
	cfg.Schemes = splitList(*schemes)
	if cfg.Mode != "run" && cfg.Mode != "sweep" {
		return config{}, fmt.Errorf("unknown -mode %q (want \"run\" or \"sweep\")", cfg.Mode)
	}
	if cfg.Concurrency < 1 {
		return config{}, fmt.Errorf("-concurrency must be at least 1")
	}
	if len(cfg.Workloads) == 0 || len(cfg.Schemes) == 0 {
		return config{}, fmt.Errorf("-workloads and -schemes must be non-empty")
	}
	if _, _, err := secure.ParseMatrix(cfg.Schemes, cfg.AP); err != nil {
		return config{}, err
	}
	return cfg, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
