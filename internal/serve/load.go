package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"

	"repro/internal/bench"
)

// LoadOptions configures a load-harness run.
type LoadOptions struct {
	// Addr is the base URL of a running server (e.g.
	// "http://127.0.0.1:8080"). Empty starts an in-process server on a
	// loopback port, runs the load against it, and drains it after.
	Addr string
	// Workers sizes the in-process server's pool (ignored with Addr;
	// 0 selects GOMAXPROCS).
	Workers int
	// Clients is the number of concurrent clients (0 selects 8).
	Clients int
	// JobsPerClient is the number of jobs each client submits and
	// reads back, sequentially (0 selects 4).
	JobsPerClient int
	// Experiment is the job every submission runs (default "E3").
	Experiment string
	// Quick and Seed are forwarded into every JobSpec; job k of
	// every client uses seed Seed+k, so the same seed set recurs
	// across clients and byte-identity is checkable.
	Quick bool
	Seed  uint64
}

// RunLoad drives N concurrent clients × M jobs against a simulation
// server over real HTTP and reports the job-latency distribution
// (p50/p99/mean/max of submit-to-last-byte wall time), throughput, and
// whether every same-seed job body came back byte-identical.
func RunLoad(opts LoadOptions) (*bench.LoadReport, error) {
	if opts.Clients <= 0 {
		opts.Clients = 8
	}
	if opts.JobsPerClient <= 0 {
		opts.JobsPerClient = 4
	}
	if opts.Experiment == "" {
		opts.Experiment = "E3"
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}

	rep := &bench.LoadReport{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Addr:          opts.Addr,
		Experiment:    opts.Experiment,
		Quick:         opts.Quick,
		Seed:          opts.Seed,
		Clients:       opts.Clients,
		JobsPerClient: opts.JobsPerClient,
		TotalJobs:     opts.Clients * opts.JobsPerClient,
		StartedAt:     now().UTC().Format("2006-01-02T15:04:05Z07:00"),
	}

	base := opts.Addr
	if base == "" {
		// In-process server on a loopback port: same code path as
		// -serve, including the HTTP stack, without needing a second
		// process.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s := New(opts.Workers, 0)
		srv := &http.Server{Handler: s.Handler()}
		done := make(chan struct{})
		go func() {
			srv.Serve(ln)
			close(done)
		}()
		defer func() {
			s.Drain()
			srv.Close()
			<-done
		}()
		base = "http://" + ln.Addr().String()
		rep.Addr = "in-process"
		rep.Workers = opts.Workers
	}

	type jobOutcome struct {
		seed  uint64
		nanos int64
		body  []byte
		err   error
	}
	outcomes := make([][]jobOutcome, opts.Clients)
	var wg sync.WaitGroup
	start := now()
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			outcomes[c] = make([]jobOutcome, opts.JobsPerClient)
			for k := 0; k < opts.JobsPerClient; k++ {
				seed := opts.Seed + uint64(k)
				t0 := now()
				body, err := submitAndFetch(client, base, JobSpec{
					ID: opts.Experiment, Mode: ModeRun,
					Quick: opts.Quick, Seed: seed,
				})
				outcomes[c][k] = jobOutcome{
					seed:  seed,
					nanos: now().Sub(t0).Nanoseconds(),
					body:  body,
					err:   err,
				}
			}
		}(c)
	}
	wg.Wait()
	wall := now().Sub(start).Nanoseconds()

	var latencies []int64
	bySeed := map[uint64][]byte{}
	rep.Deterministic = true
	for _, clientJobs := range outcomes {
		for _, o := range clientJobs {
			if o.err != nil {
				rep.Failures++
				continue
			}
			latencies = append(latencies, o.nanos)
			if ref, ok := bySeed[o.seed]; !ok {
				bySeed[o.seed] = o.body
			} else if !bytes.Equal(ref, o.body) {
				rep.Deterministic = false
			}
		}
	}
	rep.FillLatencies(latencies, wall)
	return rep, nil
}

// submitAndFetch runs one job end to end: POST the spec, then read the
// full JSONL result body.
func submitAndFetch(client *http.Client, base string, spec JobSpec) ([]byte, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	accepted, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: %s: %s", resp.Status, accepted)
	}
	var sub struct {
		Result string `json:"result"`
	}
	if err := json.Unmarshal(accepted, &sub); err != nil {
		return nil, fmt.Errorf("submit response: %v", err)
	}
	resp, err = client.Get(base + sub.Result)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: %s: %s", resp.Status, body)
	}
	return body, nil
}
