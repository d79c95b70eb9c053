package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"doppelganger/api"
	"doppelganger/internal/engine"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// serve-mix drives `doppeld -role single -workers 2` with an open-loop
// Poisson stream of test-scale /v1/run requests, then measures its capacity
// with a closed loop over the same mix. It is the only workload where the
// engine's result cache, HTTP/JSON handling and checkpoint restore sit on
// the critical path.
//
// Every request is drawn from cmd/doppelbench's default mix: the stream,
// pointer_chase and stencil kernels × unsafe, nda-p, stt and dom × ±AP, at
// test scale. That mix repeats its 24 keys, so after its first 24 requests
// the result cache answers all of them; the benchmark adds two classes
// that make doppeld simulate. The three classes:
//   - hot (50%): one of the 24 default requests as doppelbench sends it,
//     answered from the result cache;
//   - cold (35%): a default request with max_insts in [10001, 30000], so
//     the key is fresh;
//   - warm (15%): a default request run from a checkpoint of its kernel
//     made during set-up, for 5000-15000 instructions past it.
//
// The class shares and the rate are assumptions, not measurements: the
// repository has no record of the traffic doppeld serves.
//
// The run's latency is the median of the hot requests, the class most
// requests belong to. The median of all requests falls where the hot and
// cold distributions meet and swings by half between runs; the other
// classes' medians and the tail are in the traced pass.

const (
	hotPct, coldPct = 50, 35 // warm requests make up the rest
	warmupInsts     = 10_000
	resimShare      = 0.05 // share of responses re-simulated locally
	lateLimitMS     = 5    // generator lateness beyond which latencies are suspect
)

// cmd/doppelbench's default -workloads and -schemes.
var (
	serveKernels = []string{"stream", "pointer_chase", "stencil"}
	serveSchemes = []string{"unsafe", "nda-p", "stt", "dom"}
)

const (
	classHot = iota
	classCold
	classWarm
)

var classNames = [...]string{"hot", "cold", "warm"}

type serveReq struct {
	class int
	ckpt  int // checkpoint index, warm requests only
	body  api.RunRequest
}

type combo struct {
	kernel, scheme string
	ap             bool
}

type ckptInfo struct {
	kernel, id, digest string
	insts              uint64
}

// mixGen deals the request mix from the seed. Each class walks its own
// shuffled rotation of the 24 default combinations, so every class has the
// same kernels at every seed: pointer_chase runs about ten times slower
// than the other two, so a seed that favoured it would double the mix's
// cost.
type mixGen struct {
	mu        sync.Mutex
	rng       *rand.Rand
	all       []combo
	rotations [len(classNames)][]combo
	ckpts     []ckptInfo // one per serveKernels entry, in order
}

func newMix(seed int64) *mixGen {
	m := &mixGen{rng: rand.New(rand.NewSource(seed))}
	for _, k := range serveKernels {
		for _, s := range serveSchemes {
			for _, ap := range []bool{false, true} {
				m.all = append(m.all, combo{k, s, ap})
			}
		}
	}
	return m
}

// hotRequest is a default request exactly as doppelbench sends it.
func hotRequest(c combo) serveReq {
	return serveReq{class: classHot, body: api.RunRequest{Workload: c.kernel, Scale: "test", Scheme: c.scheme, AP: c.ap}}
}

// hotKeys are every hot request, to warm the result cache with.
func (m *mixGen) hotKeys() []serveReq {
	var out []serveReq
	for _, c := range m.all {
		out = append(out, hotRequest(c))
	}
	return out
}

// next deals the next request; safe for concurrent use.
func (m *mixGen) next() serveReq {
	m.mu.Lock()
	defer m.mu.Unlock()
	class := classWarm
	switch r := m.rng.Intn(100); {
	case r < hotPct:
		class = classHot
	case r < hotPct+coldPct:
		class = classCold
	}
	if len(m.rotations[class]) == 0 {
		for _, i := range m.rng.Perm(len(m.all)) {
			m.rotations[class] = append(m.rotations[class], m.all[i])
		}
	}
	c := m.rotations[class][0]
	m.rotations[class] = m.rotations[class][1:]
	switch class {
	case classHot:
		return hotRequest(c)
	case classCold:
		return serveReq{class: classCold, body: api.RunRequest{Workload: c.kernel, Scale: "test",
			Scheme: c.scheme, AP: c.ap, MaxInsts: uint64(10_001 + m.rng.Intn(20_000))}}
	default:
		i := slices.Index(serveKernels, c.kernel)
		ck := m.ckpts[i]
		return serveReq{class: classWarm, ckpt: i, body: api.RunRequest{Workload: c.kernel, Scale: "test",
			Checkpoint: ck.id, Scheme: c.scheme, AP: c.ap, MaxInsts: ck.insts + uint64(5_000+m.rng.Intn(10_001))}}
	}
}

// doppeld is one running server process.
type doppeld struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// addrWriter passes doppeld's log through and picks out its listen address.
type addrWriter struct {
	out  io.Writer
	buf  []byte
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if !w.sent {
		w.buf = append(w.buf, p...)
		if m := listenLine.FindSubmatch(w.buf); m != nil {
			w.addr <- string(m[1])
			w.sent, w.buf = true, nil
		}
	}
	return w.out.Write(p)
}

func startDoppeld(bin string, stderr io.Writer) (*doppeld, error) {
	cmd := exec.Command(bin, "-role", "single", "-workers", strconv.Itoa(workers), "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	addr := make(chan string, 1)
	cmd.Stderr = &addrWriter{out: stderr, addr: addr}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &doppeld{cmd: cmd, exited: make(chan error, 1), client: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers,
			DisableCompression: true},
	}}
	go func() { d.exited <- cmd.Wait() }()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.exited:
		d.exited <- err
		return nil, fmt.Errorf("doppeld exited during start-up: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("doppeld did not report its address")
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("doppeld /healthz never answered 200 (last error %v)", err)
		}
	}
}

// stop shuts doppeld down gracefully, kills it if it hangs, waits for it
// and returns its CPU time and peak resident set.
func (d *doppeld) stop() (cpu time.Duration, rssMB float64) {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		rssMB = float64(ru.Maxrss) / 1024
	}
	return cpu, rssMB
}

// post sends a JSON request and decodes a 200 reply into out.
func (d *doppeld) post(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (d *doppeld) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, err
}

func (d *doppeld) engineStats() (engine.Stats, error) {
	var st struct {
		Engine engine.Stats `json:"engine"`
	}
	data, err := d.get("/stats")
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st.Engine, err
}

// served is one /v1/run reply.
type served struct {
	req serveReq
	res sim.Result
	err error
}

func (d *doppeld) run(r serveReq) served {
	var resp api.RunResponse
	err := d.post("/v1/run", r.body, &resp)
	return served{req: r, res: resp.Result, err: err}
}

// checkpoint creates the set-up checkpoints on the server.
func (d *doppeld) checkpoints(kernels []string) ([]ckptInfo, error) {
	var out []ckptInfo
	for _, k := range kernels {
		var resp api.CheckpointResponse
		if err := d.post("/v1/checkpoint", api.CheckpointRequest{Workload: k, Scale: "test", WarmupInsts: warmupInsts}, &resp); err != nil {
			return nil, err
		}
		out = append(out, ckptInfo{kernel: k, id: resp.ID, digest: resp.Digest, insts: resp.Insts})
	}
	return out, nil
}

// buildDoppeld builds the server under test from the checkout's source.
func buildDoppeld(o options, stderr io.Writer) (string, error) {
	bin, err := filepath.Abs(filepath.Join(o.buildDir, "bin", "doppeld"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/doppeld")
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building doppeld: %w", err)
	}
	return bin, nil
}

// local re-simulates served requests in this process.
type local struct {
	progs map[string]*sim.Program
	ckpts []*sim.Checkpoint
}

func newLocal(kernels []string) (*local, []float64, error) {
	l := &local{progs: make(map[string]*sim.Program)}
	var snapMS []float64
	for _, k := range kernels {
		w, ok := workload.ByName(k)
		if !ok {
			return nil, nil, fmt.Errorf("unknown kernel %q", k)
		}
		l.progs[k] = w.Build(workload.ScaleTest)
		t := time.Now()
		ck, err := sim.Snapshot(l.progs[k], sim.Config{}, warmupInsts)
		if err != nil {
			return nil, nil, err
		}
		snapMS = append(snapMS, ms(time.Since(t)))
		l.ckpts = append(l.ckpts, ck)
	}
	return l, snapMS, nil
}

func (l *local) job(r serveReq) (engine.Job, error) {
	scheme, err := sim.ParseScheme(r.body.Scheme)
	j := engine.Job{Program: l.progs[r.body.Workload],
		Config: sim.Config{Scheme: scheme, AddressPrediction: r.body.AP, MaxInsts: r.body.MaxInsts}}
	if r.class == classWarm {
		j.Checkpoint = l.ckpts[r.ckpt]
	}
	return j, err
}

func (l *local) resim(r serveReq) (sim.Result, error) {
	j, err := l.job(r)
	if err != nil {
		return sim.Result{}, err
	}
	if j.Checkpoint != nil {
		return sim.RunFromCheckpoint(context.Background(), j.Program, j.Config, j.Checkpoint)
	}
	return sim.Run(j.Program, j.Config)
}

func runServe(o options, stderr io.Writer) (*outcome, error) {
	sz := sizesFor(o)
	out := newOutcome(o.trace)
	bin, err := buildDoppeld(o, stderr)
	if err != nil {
		return nil, err
	}
	mix := newMix(o.seed)

	// Set-up, several times over: exec doppeld until /healthz answers and
	// the checkpoints exist. The last server started is the one measured.
	var srv *doppeld
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setups []float64
	for len(setups) < sz.setups || srv == nil {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t := time.Now()
		s, err := startDoppeld(bin, stderr)
		if err != nil {
			return nil, err
		}
		srv = s
		if mix.ckpts, err = srv.checkpoints(serveKernels); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if o.trace {
			break
		}
	}
	// Warm the result cache with every hot key, untimed.
	hot := mix.hotKeys()
	warmed := make([]served, len(hot))
	parallel(len(hot), workers, func(i int) { warmed[i] = srv.run(hot[i]) })
	hotWant := make(map[api.RunRequest]sim.Result, len(hot))
	for _, r := range warmed {
		if r.err != nil {
			return nil, fmt.Errorf("warming hot key %+v: %w", r.req.body, r.err)
		}
		hotWant[r.req.body] = r.res
	}

	before, err := srv.engineStats()
	if err != nil {
		return nil, err
	}
	promBefore, err := srv.get("/metrics")
	if err != nil {
		return nil, err
	}
	due := poissonSchedule(rand.New(rand.NewSource(o.seed^0x5eed)), sz.rate, time.Duration(sz.openS*float64(time.Second)))
	reqs := make([]serveReq, len(due))
	for i := range reqs {
		reqs[i] = mix.next()
	}
	open := make([]served, len(due))
	t0 := time.Now()
	samples := openLoop(realClock{t0}, due, workers, func(i int) bool {
		open[i] = srv.run(reqs[i])
		return open[i].err == nil
	})
	openWall := time.Since(t0)
	after, err := srv.engineStats()
	if err != nil {
		return nil, err
	}
	promAfter, err := srv.get("/metrics")
	if err != nil {
		return nil, err
	}

	var closedMu sync.Mutex
	var closed []served
	t1 := time.Now()
	completed := closedLoop(realClock{t1}, time.Duration(sz.closedS*float64(time.Second)), workers, func() bool {
		r := srv.run(mix.next())
		closedMu.Lock()
		closed = append(closed, r)
		closedMu.Unlock()
		return r.err == nil
	})
	closedWall := time.Since(t1)
	cpu, rss := srv.stop()
	srv = nil

	// Correctness, untimed: every reply is a 200, hot keys answer as they
	// did when warmed, the checkpoints match local ones, and a seeded
	// sample of replies re-simulates to identical results.
	all := append(append([]served(nil), open...), closed...)
	out.attempted = len(all)
	loc, snapMS, err := newLocal(serveKernels)
	if err != nil {
		return nil, err
	}
	for i, ck := range mix.ckpts {
		if d := loc.ckpts[i].Digest(); d != ck.digest {
			out.fail("checkpoint of %s: server digest %s, local %s", ck.kernel, ck.digest, d)
		}
	}
	var sample []served
	pick := rand.New(rand.NewSource(o.seed + 1))
	for _, r := range all {
		switch {
		case r.err != nil:
			out.failed++
			if out.failed <= 3 {
				out.fail("%s request %+v: %v", classNames[r.req.class], r.req.body, r.err)
			}
		case r.req.class == classHot && r.res != hotWant[r.req.body]:
			out.failed++
			out.fail("hot key %+v answered differently from its first reply", r.req.body)
		case pick.Float64() < resimShare:
			sample = append(sample, r)
		}
	}
	mismatch := make([]error, len(sample))
	parallel(len(sample), workers, func(i int) {
		want, err := loc.resim(sample[i].req)
		if err == nil && !sameResult(want, sample[i].res) {
			err = errors.New("server result differs from local re-simulation")
		}
		mismatch[i] = err
	})
	for i, err := range mismatch {
		if err != nil {
			out.failed++
			out.fail("re-simulating %+v: %v", sample[i].req.body, err)
		}
	}
	fmt.Fprintf(stderr, "bench: serve-mix: %d open-loop + %d closed-loop requests, %d re-simulated\n",
		len(open), len(closed), len(sample))

	d := newDigester()
	for i, r := range open {
		if r.err != nil {
			d.add(strconv.Itoa(i), r.err.Error())
		} else {
			d.add(strconv.Itoa(i), r.res)
		}
	}
	out.digest = d.sum()

	if late, pct, _ := tail(lateness(samples)); late > lateLimitMS {
		fmt.Fprintf(stderr, "bench: warning: the generator ran %.1f ms late at p%d; latencies are suspect\n", late, pct)
	}
	if !o.trace {
		out.metrics["setup_s"] = median(setups)
		out.metrics["throughput"] = float64(completed) / closedWall.Seconds()
		out.metrics["latency_ms"] = median(classLatencies(samples, reqs)[classHot])
		out.metrics["cpu_ms_per_op"] = cpu.Seconds() * 1000 / float64(len(all))
		out.metrics["peak_rss_mb"] = rss
		return out, nil
	}
	return out, serveTraced(o, out, reqs, open, samples, before, after, openWall, loc, snapMS, t0,
		[2][]byte{promBefore, promAfter}, stderr)
}

// classLatencies splits the open-loop latencies, from the due time, by
// request class.
func classLatencies(samples []sample, reqs []serveReq) [][]float64 {
	out := make([][]float64, len(classNames))
	for i, l := range latencies(samples) {
		c := reqs[i].class
		out[c] = append(out[c], l)
	}
	return out
}

// sameResult compares results as they cross the wire.
func sameResult(a, b sim.Result) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// serveTraced derives the per-layer metrics of the open-loop phase: spans
// per request from its timeline, /stats deltas for the engine, and probes
// of checkpoint encoding, job keys and core set-up on the run's inputs.
func serveTraced(o options, out *outcome, reqs []serveReq, open []served, samples []sample,
	before, after engine.Stats, openWall time.Duration, loc *local, snapMS []float64, t0 time.Time,
	prom [2][]byte, stderr io.Writer) error {
	rec := newRecorder()
	rec.t0 = t0
	byClass := classLatencies(samples, reqs)
	var hotService []float64
	counts := newRunAggregate()
	for i, s := range samples {
		c := reqs[i].class
		op := int64(i + 1)
		id := rec.id()
		rec.addNS(rec.id(), id, op, "loadgen.wait", s.due.Nanoseconds(), s.started.Nanoseconds())
		rec.addNS(rec.id(), id, op, "doppeld.run."+classNames[c], s.started.Nanoseconds(), s.done.Nanoseconds())
		rec.addNS(id, 0, op, "bench.request", s.due.Nanoseconds(), s.done.Nanoseconds())
		if c == classHot {
			hotService = append(hotService, ms(s.done-s.started))
		}
		if open[i].err == nil {
			counts.count(open[i].res)
		}
	}
	L := counts.metrics()
	for c, xs := range byClass {
		L["serve.latency_ms."+classNames[c]] = median(xs)
	}
	v, pct, n := tail(latencies(samples))
	L["serve.latency_ms_tail"], L["serve.latency_tail_pct"], L["serve.requests"] = v, float64(pct), float64(n)
	L["doppeld.overhead_ms"] = median(hotService)
	L["loadgen.late_ms_tail"], _, _ = tail(lateness(samples))
	L["loadgen.backlog_max"] = float64(backlogMax(samples))

	sub, hits, jobs := after.Submitted-before.Submitted, after.CacheHits-before.CacheHits, after.JobsRun-before.JobsRun
	wall, cyc := after.SimWall-before.SimWall, after.SimCycles-before.SimCycles
	if sub > 0 {
		L["engine.cache_hit_ratio"] = float64(hits) / float64(sub)
	}
	if jobs > 0 {
		L["engine.job_ms"] = ms(wall) / float64(jobs)
	}
	if cyc > 0 {
		L["pipeline.ns_per_cycle"] = float64(wall.Nanoseconds()) / float64(cyc)
	}
	L["engine.utilization"] = wall.Seconds() / (workers * openWall.Seconds())

	var jobsList []engine.Job
	for _, r := range reqs {
		j, err := loc.job(r)
		if err != nil {
			return err
		}
		jobsList = append(jobsList, j)
	}
	L["engine.key_us"] = probeKeys(jobsList)
	var decodeMS []float64
	var bytesTotal int
	for _, ck := range loc.ckpts {
		enc := ck.Encode()
		bytesTotal += len(enc)
		for k := 0; k < 3; k++ {
			t := time.Now()
			if _, err := sim.DecodeCheckpoint(enc); err != nil {
				return err
			}
			decodeMS = append(decodeMS, ms(time.Since(t)))
		}
	}
	L["checkpoint.snapshot_ms"] = median(snapMS)
	L["checkpoint.decode_ms"] = median(decodeMS)
	L["checkpoint.bytes"] = float64(bytesTotal) / float64(len(loc.ckpts))
	var err error
	sz := sizesFor(o)
	if L["sim.newcore_ms"], L["sim.newcore_alloc_mb"], err = probeNewCore(loc.progs["stream"], sim.Config{}, sz.probeN); err != nil {
		return err
	}
	// The spans come from timestamps every run takes: tracing adds nothing.
	L["trace.overhead_ratio"] = 1
	for k, v := range L {
		out.metrics[k] = v
	}
	for i, name := range []string{"before", "after"} {
		path := fmt.Sprintf("%s/%s.metrics-%s.prom", ensureDir(o.spansDir), o.workload, name)
		if err := os.WriteFile(path, prom[i], 0o644); err != nil {
			return err
		}
	}
	return finishTrace(o, rec, stderr)
}
