package leakcheck

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"doppelganger/internal/secure"
)

// knownSecureLeaks are the secure-config leaks that sampling gadget seeds
// has found and the model does not explain yet: each config and seed with
// the components its pair differs in. They are open
// residuals, not accepted behaviour; TestKnownSecureLeaks pins them
// exactly, so a fix that closes one, and a change that spreads one to
// another config or component, both show. They depend on timing, so they
// also fence changes to the cycle loop.
var knownSecureLeaks = map[string]string{
	"dom+ap/887":       "traffic addr-trace-spec",
	"dom/11466":        "traffic addr-trace-spec",
	"dom+ap/11466":     "traffic addr-trace-spec",
	"cleanup/13939":    "L1 L2 L3 mshr-timeline traffic addr-trace-spec",
	"cleanup+ap/13939": "L1 L2 L3 mshr-timeline traffic addr-trace-spec",
}

// TestKnownSecureLeaks sweeps every registry scheme, with and without
// doppelganger loads, over the seeds of knownSecureLeaks, and requires the
// secure configs to leak exactly there, through exactly those components.
func TestKnownSecureLeaks(t *testing.T) {
	var cfgs []Config
	for _, s := range secure.AllSchemes() {
		for _, ap := range []bool{false, true} {
			if c := (Config{Scheme: s, AP: ap}); c.Secure() {
				cfgs = append(cfgs, c)
			}
		}
	}
	got := map[string]string{}
	for _, seed := range []int64{887, 11466, 13939} {
		res, err := Sweep(context.Background(), cfgs, seed, 1, runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			for _, l := range r.Leaks {
				got[fmt.Sprintf("%s/%d", r.Config, l.Seed)] = strings.Join(l.Leak.Components, " ")
			}
		}
	}
	for k, comps := range got {
		if want, ok := knownSecureLeaks[k]; !ok {
			t.Errorf("%s leaks (%s): a secure-config leak that is not a known residual", k, comps)
		} else if comps != want {
			t.Errorf("%s leaks through %s, want exactly %s", k, comps, want)
		}
	}
	for k := range knownSecureLeaks {
		if _, ok := got[k]; !ok {
			t.Errorf("%s no longer leaks: the residual is gone, so drop it from knownSecureLeaks", k)
		}
	}
}
