package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"doppelganger/sim"
)

func TestResolveRefusalsAreBadRequests(t *testing.T) {
	for _, r := range []RunRequest{
		{},
		{Workload: "stream", Scale: "huge"},
		{Workload: "stream", Scheme: "bogus"},
		{Workload: "nope", Scale: "test"},
	} {
		if _, _, err := r.Resolve(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%+v: err = %v, want ErrBadRequest", r, err)
		}
	}
	prog, cfg, err := RunRequest{Workload: "stream", Scale: "test", Scheme: "dom", AP: true, MaxInsts: 7}.Resolve()
	if err != nil || prog == nil || prog.Name != "stream" {
		t.Fatalf("Resolve = %v, %v", prog, err)
	}
	if want := (sim.Config{Scheme: sim.DoM, AddressPrediction: true, MaxInsts: 7}); cfg != want {
		t.Errorf("config = %+v, want %+v", cfg, want)
	}
	if prog, _, err := (RunRequest{Checkpoint: "ckpt-1"}).Resolve(); err != nil || prog != nil {
		t.Errorf("checkpoint-only request: program %v, err %v; want nil, nil", prog, err)
	}
}

func TestExpandValidatesWholeSweepInMatrixOrder(t *testing.T) {
	for _, r := range []SweepRequest{
		{Scale: "galactic"},
		{Workloads: []string{"stream", "nope"}, Scale: "test"},
		{Schemes: []string{"bogus"}},
		{AP: "maybe"},
	} {
		if _, err := r.Expand(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%+v: err = %v, want ErrBadRequest", r, err)
		}
	}
	jobs, err := SweepRequest{Workloads: []string{"stream", "compress"}, Schemes: []string{"unsafe", "dom"}, Scale: "test"}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range jobs {
		got = append(got, fmt.Sprintf("%s/%s/%v", j.Run.Workload, j.Run.Scheme, j.Run.AP))
		if j.Program.Name != j.Run.Workload || j.Config.Scheme.String() != j.Run.Scheme || j.Config.AddressPrediction != j.Run.AP {
			t.Errorf("cell %s resolves to %s %+v", got[len(got)-1], j.Program.Name, j.Config)
		}
	}
	want := "[stream/unsafe/false stream/unsafe/true stream/dom/false stream/dom/true " +
		"compress/unsafe/false compress/unsafe/true compress/dom/false compress/dom/true]"
	if fmt.Sprint(got) != want {
		t.Errorf("order = %v\nwant    %s", got, want)
	}
}

func TestSetNormIPCSkipsFailedCells(t *testing.T) {
	cells := []SummaryCell{
		{Workload: "w", Scheme: "unsafe", Result: sim.Result{Cycles: 100}},
		{Workload: "w", Scheme: "dom", Result: sim.Result{Cycles: 200}},
		{Workload: "w", Scheme: "stt", Error: "boom"},
		{Workload: "v", Scheme: "unsafe", Error: "boom"},
		{Workload: "v", Scheme: "dom", Result: sim.Result{Cycles: 50}},
	}
	SetNormIPC(cells)
	for i, want := range []float64{1, 0.5, 0, 0, 0} {
		if cells[i].NormIPC != want {
			t.Errorf("cell %d: NormIPC = %v, want %v", i, cells[i].NormIPC, want)
		}
	}
}

func TestFailStatus(t *testing.T) {
	for _, c := range []struct {
		err  error
		code int
	}{
		{BadRequest("missing %q", "x"), http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", context.Canceled), http.StatusBadRequest},
		{context.DeadlineExceeded, http.StatusBadRequest},
		{errors.New("engine: boom"), http.StatusInternalServerError},
	} {
		w := httptest.NewRecorder()
		Fail(w, c.err)
		if w.Code != c.code {
			t.Errorf("%v: status %d, want %d", c.err, w.Code, c.code)
		}
	}
	if got := BadRequest("missing %q", "x").Error(); got != `missing "x"` {
		t.Errorf("BadRequest message = %q", got)
	}
}
