package api

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"doppelganger/internal/secure"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// ErrBadRequest marks an error as the client's fault: a malformed body or a
// request naming something that does not exist. errors.Is(err,
// ErrBadRequest) selects status 400.
var ErrBadRequest = errors.New("bad request")

// badRequest marks err as ErrBadRequest and keeps its message.
type badRequest struct{ error }

func (badRequest) Is(target error) bool { return target == ErrBadRequest }

// BadRequest formats an error that matches ErrBadRequest.
func BadRequest(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// Resolve validates the request's workload, scale and scheme, and returns
// the program they name and the configuration, AP and limits included. A
// request that names only a checkpoint resolves to a nil program: the
// checkpoint embeds its own. Every refusal matches ErrBadRequest.
func (r RunRequest) Resolve() (*sim.Program, sim.Config, error) {
	if r.Workload == "" && r.Checkpoint == "" {
		return nil, sim.Config{}, BadRequest(`missing "workload"`)
	}
	scale, err := workload.ParseScale(r.Scale)
	if err != nil {
		return nil, sim.Config{}, badRequest{err}
	}
	scheme, err := sim.ParseScheme(cmp.Or(r.Scheme, sim.Unsafe.String()))
	if err != nil {
		return nil, sim.Config{}, badRequest{err}
	}
	cfg := sim.Config{Scheme: scheme, AddressPrediction: r.AP, MaxInsts: r.MaxInsts, MaxCycles: r.MaxCycles}
	if r.Workload == "" {
		return nil, cfg, nil
	}
	prog, err := workload.Program(r.Workload, scale)
	if err != nil {
		return nil, sim.Config{}, badRequest{err}
	}
	return prog, cfg, nil
}

// SweepJob is one cell of an expanded sweep: the single run it stands for
// and what that run resolves to.
type SweepJob struct {
	Run     RunRequest
	Program *sim.Program
	Config  sim.Config
}

// Expand validates the sweep's scale, AP setting, schemes and workloads —
// all of them, before any cell runs — and returns its cells in matrix
// order: workload, then scheme, then -AP/+AP. Every refusal matches
// ErrBadRequest.
func (r SweepRequest) Expand() ([]SweepJob, error) {
	scale, err := workload.ParseScale(r.Scale)
	if err != nil {
		return nil, badRequest{err}
	}
	schemes, aps, err := secure.ParseMatrix(r.Schemes, r.AP)
	if err != nil {
		return nil, badRequest{err}
	}
	names := r.Workloads
	if len(names) == 0 {
		names = workload.Names()
	}
	jobs := make([]SweepJob, 0, len(names)*len(schemes)*len(aps))
	for _, name := range names {
		prog, err := workload.Program(name, scale)
		if err != nil {
			return nil, badRequest{err}
		}
		for _, scheme := range schemes {
			for _, ap := range aps {
				run := RunRequest{Workload: name, Scale: r.Scale, Scheme: scheme.String(), AP: ap,
					MaxInsts: r.MaxInsts, MaxCycles: r.MaxCycles}
				cfg := sim.Config{Scheme: scheme, AddressPrediction: ap, MaxInsts: r.MaxInsts, MaxCycles: r.MaxCycles}
				jobs = append(jobs, SweepJob{Run: run, Program: prog, Config: cfg})
			}
		}
	}
	return jobs, nil
}

// normCell is a sweep cell that carries a normalized IPC.
type normCell interface {
	// norm returns the cell's workload, whether it is that workload's
	// unsafe no-AP baseline, its cycles (0 for a cell without a result),
	// and where its NormIPC lives.
	norm() (workload string, baseline bool, cycles uint64, normIPC *float64)
}

func (c *SweepCell) norm() (string, bool, uint64, *float64) {
	return c.Workload, c.Scheme == sim.Unsafe.String() && !c.AP, c.Result.Cycles, &c.NormIPC
}

func (c *SummaryCell) norm() (string, bool, uint64, *float64) {
	cycles := c.Result.Cycles
	if c.Error != "" {
		cycles = 0
	}
	return c.Workload, c.Scheme == sim.Unsafe.String() && !c.AP, cycles, &c.NormIPC
}

// SetNormIPC fills each cell's NormIPC: its IPC normalized to the same
// workload's unsafe no-AP baseline, that is the baseline's cycles over the
// cell's. Cells whose workload has no baseline in the sweep, and cells
// without a result, keep 0, which the wire omits.
func SetNormIPC[C any, P interface {
	*C
	normCell
}](cells []C) {
	base := make(map[string]uint64)
	for i := range cells {
		if w, baseline, cycles, _ := P(&cells[i]).norm(); baseline && cycles > 0 {
			base[w] = cycles
		}
	}
	for i := range cells {
		w, _, cycles, norm := P(&cells[i]).norm()
		if b, ok := base[w]; ok && cycles > 0 {
			*norm = float64(b) / float64(cycles)
		}
	}
}

// DecodeJSON decodes a request body into v, refusing unknown fields. Its
// errors match ErrBadRequest.
func DecodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return BadRequest("bad request body: %v", err)
	}
	return nil
}

// WriteJSON writes v as an indented JSON reply with the status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes an Error reply with the status code.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, Error{Error: msg})
}

// Fail writes err as an Error reply. Bad requests and client cancellations
// (the 499 case, surfaced as 400) are 400; everything else is a 500.
func Fail(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, ErrBadRequest) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		code = http.StatusBadRequest
	}
	WriteError(w, code, err.Error())
}
