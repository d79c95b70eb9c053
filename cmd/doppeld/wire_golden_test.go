package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// updateWire regenerates testdata/wire_golden.txt:
//
//	go test ./cmd/doppeld -run TestWireGolden -update
//
// The file pins the status and body bytes doppeld answers; a refactor of
// the request path must leave it untouched.
var updateWire = flag.Bool("update", false, "regenerate testdata/wire_golden.txt instead of comparing against it")

const wireGoldenFile = "testdata/wire_golden.txt"

// wallClock matches the wall-clock fields a wire golden masks.
var wallClock = regexp.MustCompile(`("(?:duration_ms|uptime_ms)":\s*)\d+`)

// TestWireGolden replays a fixed request sequence against a fresh server
// and compares every reply with the golden: a test-scale run, a small
// sweep, the refused requests of TestBadRequestsAre400, a small contract
// sweep and a small campaign.
func TestWireGolden(t *testing.T) {
	ts := newTestServer(t)
	var out bytes.Buffer
	for _, c := range []struct{ ep, body string }{
		{"/v1/run", `{"workload":"stream","scheme":"dom","ap":true,"scale":"test"}`},
		{"/v1/sweep", `{"workloads":["stream"],"schemes":["unsafe","dom"],"scale":"test"}`},
		{"/v1/run", `{"workload":"stream","scheme":"bogus","scale":"test"}`},
		{"/v1/run", `{"workload":"stream","scale":"huge"}`},
		{"/v1/run", `{"typo_field":1}`},
		{"/v1/run", `{`},
		{"/v1/sweep", `{"ap":"maybe","scale":"test"}`},
		{"/v1/leakcheck", `{"schemes":["unsafe","dom"],"seeds":4}`},
		{"/v1/campaign", `{"schemes":["unsafe"],"ap":"off","budget":4,"seed":1}`},
	} {
		resp, body := postJSON(t, ts.URL+c.ep, c.body)
		fmt.Fprintf(&out, "=== POST %s %s\nstatus %d\n%s\n", c.ep, c.body, resp.StatusCode, wallClock.ReplaceAll(body, []byte("${1}0")))
	}
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("wire replies differ from %s:\n%s", wireGoldenFile, firstDiff(out.Bytes(), want))
	}
}

// firstDiff renders the first differing line of got against want.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return "(lengths differ)"
}
