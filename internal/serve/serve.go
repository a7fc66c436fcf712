package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"
)

// Server is the HTTP face of a job pool.
//
// API (all JSON):
//
//	GET    /healthz          liveness + drain state
//	POST   /jobs             submit a JobSpec; 202 with the job name,
//	                         413 for a body over 1 MiB
//	GET    /jobs             list every job's status
//	GET    /jobs/{job}       one job's status
//	GET    /jobs/{job}/result  block until terminal, then the JSONL body
//	DELETE /jobs/{job}       cancel a queued job
//
// While draining (after BeginDrain, typically on SIGTERM) new
// submissions get 503 and in-flight jobs run to completion; status and
// result endpoints keep serving.
type Server struct {
	pool     *Pool
	mux      *http.ServeMux
	draining atomic.Bool
}

// maxSpecBytes caps a POST /jobs body; larger bodies get 413.
const maxSpecBytes = 1 << 20

// New builds a server over a fresh pool of the given size.
func New(workers, maxQueue int) *Server {
	s := &Server{pool: NewPool(workers, maxQueue)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{job}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{job}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /jobs/{job}", s.handleCancel)
	return s
}

// Handler returns the HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the underlying pool (the load harness submits through
// HTTP; tests reach in for drain control).
func (s *Server) Pool() *Pool { return s.pool }

// BeginDrain flips the server into drain mode: new submissions are
// rejected with 503. It does not wait; call Drain to block until the
// backlog is done.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain begins draining (idempotent) and blocks until every queued and
// running job reached a terminal state and the workers exited.
func (s *Server) Drain() {
	s.BeginDrain()
	s.pool.Drain()
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.draining.Load() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":  state,
		"workers": s.pool.Workers(),
		"jobs":    len(s.pool.List()),
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: ErrDraining.Error()})
		return
	}
	var spec JobSpec
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid job spec: %v", err)})
		return
	}
	j, err := s.pool.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	st := j.Status()
	writeJSON(w, http.StatusAccepted, map[string]interface{}{
		"job":    j.Name,
		"state":  st.State,
		"status": fmt.Sprintf("/jobs/%s", j.Name),
		"result": fmt.Sprintf("/jobs/%s/result", j.Name),
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": s.pool.List()})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	name := r.PathValue("job")
	j, ok := s.pool.Get(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown job %q", name)})
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	// Block until the job is terminal or the client goes away. Which
	// arrives first is host-side control flow (client disconnects are
	// wall-clock events); no simulation ordering depends on the winner.
	//
	//lint:ignore determinism job completion vs client disconnect is host-side control flow, not simulation ordering
	select {
	case <-j.Done():
	case <-r.Context().Done():
		return
	}
	state, body, errMsg := j.Result()
	switch state {
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: errMsg})
	case StateCanceled:
		writeJSON(w, http.StatusGone, errorBody{Error: "job canceled"})
	default:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	state, _ := s.pool.Cancel(j.Name)
	if state != StateCanceled {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job %s is %s; only queued jobs can be canceled", j.Name, state),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"job": j.Name, "state": state})
}

// ListenAndServe runs the daemon on addr until SIGINT/SIGTERM, then
// shuts down gracefully: drain mode first (new submissions 503), the
// job backlog runs dry, and only then does the listener close. out
// receives human-readable progress lines.
func ListenAndServe(addr string, workers, maxQueue int, out io.Writer) error {
	s := New(workers, maxQueue)
	srv := &http.Server{Addr: addr, Handler: s.Handler()}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(out, "bsplogp serving on %s (%d workers)\n", addr, s.pool.Workers())

	// Host-side lifecycle only: whichever of "signal arrived" and
	// "listener failed" wins carries no simulation ordering.
	//
	//lint:ignore determinism daemon lifecycle (signal vs listener error) is host-side control flow
	select {
	case err := <-errc:
		// Listener failed before any signal (port in use, ...).
		s.Drain()
		return err
	case sig := <-sigc:
		fmt.Fprintf(out, "bsplogp: %v: draining (in-flight jobs run to completion, new submissions get 503)\n", sig)
		s.BeginDrain()
		s.pool.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		<-errc // ListenAndServe has returned http.ErrServerClosed
		fmt.Fprintln(out, "bsplogp: drained, bye")
		return nil
	}
}
