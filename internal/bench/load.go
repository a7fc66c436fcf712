package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/stats"
)

// LoadReport is the top-level schema of SERVE_logp.json, the service
// mode load-harness report: N concurrent clients each submit M jobs to
// a simulation server and read the full JSONL result body back; the
// report carries the job-latency distribution (submit to last result
// byte) and aggregate throughput, in the mean/99th-percentile shape
// load harnesses conventionally report.
type LoadReport struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Addr is the target server ("in-process" when the harness ran an
	// embedded server rather than dialing a remote one).
	Addr string `json:"addr"`
	// Experiment and Quick are the job parameters every
	// submission carried; Seed varies per job (base seed + job index).
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	Seed       uint64 `json:"seed"`
	// Workers is the server's pool size (0 when dialing a remote
	// server whose pool size the client cannot see).
	Workers       int    `json:"workers,omitempty"`
	Clients       int    `json:"clients"`
	JobsPerClient int    `json:"jobsPerClient"`
	TotalJobs     int    `json:"totalJobs"`
	Failures      int    `json:"failures"`
	StartedAt     string `json:"startedAt"`
	// Deterministic reports whether every job sharing a seed returned
	// a byte-identical body across all clients — the service-mode
	// replay guarantee, verified on every load run.
	Deterministic bool `json:"deterministic"`
	// Job latency distribution, nanoseconds of wall time from the
	// submit POST to the result body fully read.
	P50Nanos  int64 `json:"p50Nanos"`
	P99Nanos  int64 `json:"p99Nanos"`
	MeanNanos int64 `json:"meanNanos"`
	MaxNanos  int64 `json:"maxNanos"`
	// WallNanos spans the whole load run; JobsPerSec is
	// TotalJobs/WallNanos.
	WallNanos  int64   `json:"wallNanos"`
	JobsPerSec float64 `json:"jobsPerSec"`
}

// FillLatencies computes the distribution fields from per-job
// latencies (nanoseconds; scratch, gets reordered) and the run's wall
// time.
func (r *LoadReport) FillLatencies(latencies []int64, wallNanos int64) {
	xs := make([]float64, len(latencies))
	for i, l := range latencies {
		xs[i] = float64(l)
	}
	sum := stats.Summarize(xs)
	r.P50Nanos = int64(stats.Percentile(xs, 0.50))
	r.P99Nanos = int64(stats.Percentile(xs, 0.99))
	r.MeanNanos = int64(sum.Mean)
	r.MaxNanos = int64(sum.Max)
	r.WallNanos = wallNanos
	if wallNanos > 0 {
		r.JobsPerSec = float64(r.TotalJobs) / (float64(wallNanos) / 1e9)
	}
}

// ReadLoadJSON loads a report previously written by WriteJSON.
func ReadLoadJSON(path string) (*LoadReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r LoadReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &r, nil
}

// WriteJSON writes the report to path, pretty-printed.
func (r *LoadReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render summarizes the report as an aligned table for the CLI.
func (r *LoadReport) Render() string {
	t := &Table{
		ID: "SERVE",
		Title: fmt.Sprintf("load harness (%s %s/%s, %s, experiment=%s quick=%v, %d workers)",
			r.GoVersion, r.GOOS, r.GOARCH, r.Addr, r.Experiment, r.Quick, r.Workers),
		Columns: []string{"clients", "jobs/client", "total", "failures", "p50-ms", "p99-ms", "mean-ms", "max-ms", "jobs/sec"},
	}
	t.AddRow(r.Clients, r.JobsPerClient, r.TotalJobs, r.Failures,
		float64(r.P50Nanos)/1e6, float64(r.P99Nanos)/1e6,
		float64(r.MeanNanos)/1e6, float64(r.MaxNanos)/1e6, r.JobsPerSec)
	if r.Deterministic {
		t.Notes = append(t.Notes, "all same-seed job bodies byte-identical across clients")
	} else {
		t.Notes = append(t.Notes, "DETERMINISM VIOLATION: same-seed jobs returned differing bodies")
	}
	t.Notes = append(t.Notes, fmt.Sprintf("wall time %v", time.Duration(r.WallNanos).Round(time.Millisecond)))
	return t.Render()
}
