package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

// updateWire regenerates testdata/wire_golden.txt:
//
//	go test ./internal/cluster -run TestWireGolden -update
//
// The file pins the status and body bytes the coordinator answers; a
// refactor of the request path must leave it untouched.
var updateWire = flag.Bool("update", false, "regenerate testdata/wire_golden.txt instead of comparing against it")

const wireGoldenFile = "testdata/wire_golden.txt"

// wallClock matches the wall-clock fields a wire golden masks.
// last_seen_ms is the age of a worker's last contact, so it is one too; the
// worker's kernel-chosen port is replaced as well.
var wallClock = regexp.MustCompile(`("(?:duration_ms|uptime_ms|last_seen_ms)":\s*)\d+`)

// TestWireGolden replays a fixed request sequence against a coordinator
// with one in-process worker and a store, and compares every reply with the
// golden: /v1/run served as computed, from memory and (by a second
// coordinator on the same store) from the store; a buffered, an NDJSON and
// an SSE sweep; the refused specs of TestBadSpecIs400; and the worker list.
func TestWireGolden(t *testing.T) {
	st, _ := newTestStore(t)
	w1 := newTestWorker(t, "w1", 2)
	c1 := httptest.NewServer(newTestCoordinator(t, Options{Store: st}, w1).Handler())
	t.Cleanup(c1.Close)
	c2 := httptest.NewServer(newTestCoordinator(t, Options{Store: st}, w1).Handler())
	t.Cleanup(c2.Close)

	const run = `{"workload":"stream","scale":"test","scheme":"dom","ap":true}`
	var out bytes.Buffer
	for _, c := range []struct {
		srv          *httptest.Server
		method, path string
		accept, body string
	}{
		{c1, "POST", "/v1/run", "", run},
		{c1, "POST", "/v1/run", "", run},
		{c2, "POST", "/v1/run", "", run},
		{c1, "POST", "/v1/sweep", "", `{"workloads":["stream"],"schemes":["unsafe","dom"],"scale":"test"}`},
		{c1, "POST", "/v1/sweep", "", `{"workloads":["stream"],"schemes":["unsafe","nda-p"],"ap":"off","scale":"test","stream":"ndjson"}`},
		{c1, "POST", "/v1/sweep", "text/event-stream", `{"workloads":["stream"],"schemes":["stt"],"ap":"on","scale":"test"}`},
		{c1, "POST", "/v1/run", "", `{"workload":""}`},
		{c1, "POST", "/v1/run", "", `{"workload":"nope","scale":"test"}`},
		{c1, "POST", "/v1/run", "", `{"workload":"stream","scale":"galactic"}`},
		{c1, "POST", "/v1/run", "", `{"workload":"stream","scale":"test","scheme":"bogus"}`},
		{c1, "GET", "/v1/cluster/workers", "", ""},
	} {
		req, err := http.NewRequest(c.method, c.srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		server := "c1"
		if c.srv == c2 {
			server = "c2"
		}
		masked := bytes.ReplaceAll(body.Bytes(), []byte(w1.ts.URL), []byte("http://w1"))
		fmt.Fprintf(&out, "=== %s %s %s accept=%q %s\nstatus %d\n%s\n", server, c.method, c.path, c.accept, c.body,
			resp.StatusCode, wallClock.ReplaceAll(masked, []byte("${1}0")))
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
