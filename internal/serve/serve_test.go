package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
)

func postJob(t *testing.T, ts *httptest.Server, spec string) (code int, body []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, url string) (code int, body []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func runJobOverHTTP(t *testing.T, ts *httptest.Server, spec string) []byte {
	t.Helper()
	code, accepted := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, accepted)
	}
	var sub struct {
		Job    string `json:"job"`
		Result string `json:"result"`
	}
	if err := json.Unmarshal(accepted, &sub); err != nil {
		t.Fatalf("submit response: %v: %s", err, accepted)
	}
	code, body := get(t, ts.URL+sub.Result)
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, body)
	}
	return body
}

func checkJSONL(t *testing.T, body []byte, wantID string) (rows int) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("JSONL body too short:\n%s", body)
	}
	var head struct {
		Type    string   `json:"type"`
		ID      string   `json:"id"`
		Columns []string `json:"columns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
		t.Fatalf("header line: %v\n%s", err, lines[0])
	}
	if head.Type != "table" || head.ID != wantID || len(head.Columns) == 0 {
		t.Fatalf("bad header line: %s", lines[0])
	}
	var tail struct {
		Type string `json:"type"`
		Rows int    `json:"rows"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
		t.Fatalf("done line: %v\n%s", err, lines[len(lines)-1])
	}
	if tail.Type != "done" || tail.Rows == 0 {
		t.Fatalf("bad done line: %s", lines[len(lines)-1])
	}
	return tail.Rows
}

func TestSubmitAndResult(t *testing.T) {
	s := New(2, 0)
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := runJobOverHTTP(t, ts, `{"id":"E6","quick":true,"seed":1}`)
	rows := checkJSONL(t, body, "E6")
	if rows == 0 {
		t.Fatal("no rows")
	}

	// The status endpoint reflects completion and carries latencies.
	code, listBody := get(t, ts.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].State != StateDone {
		t.Fatalf("list: %+v", list)
	}
	if list.Jobs[0].RunNanos <= 0 || list.Jobs[0].Submitted == "" {
		t.Fatalf("latencies not populated: %+v", list.Jobs[0])
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(1, 0)
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, spec := range []string{
		`{"id":"E99"}`,             // unknown experiment
		`{"id":"E3","mode":"zap"}`, // unknown mode
		`{"id":"E3","shards":-1}`,  // negative shards
		`{"id":"E3","shards":4}`,   // the sharded scheduler was removed
		`not json`,
	} {
		if code, body := postJob(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (%s)", spec, code, body)
		}
	}
	if code, body := get(t, ts.URL+"/jobs/j999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: code %d (%s)", code, body)
	}
}

// TestSubmitOversizedBody: a body over the 1 MiB cap gets 413, not a
// truncated read that fails as invalid JSON.
func TestSubmitOversizedBody(t *testing.T) {
	s := New(1, 0)
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	head, tail := `{"id":"E3","pad":"`, `"}`
	spec := head + strings.Repeat("x", maxSpecBytes+1-len(head)-len(tail)) + tail
	if len(spec) != maxSpecBytes+1 {
		t.Fatalf("body is %d bytes, want %d", len(spec), maxSpecBytes+1)
	}
	if code, body := postJob(t, ts, spec); code != http.StatusRequestEntityTooLarge {
		t.Errorf("code %d, want 413 (%s)", code, body)
	}
}

// TestServeDeterministicConcurrent is the service-mode replay
// guarantee: many concurrent clients submitting the same (experiment,
// seed) all receive byte-identical JSONL bodies, with warm-cache hits
// and misses mixed freely across the pool's workers. Run under -race
// in CI.
func TestServeDeterministicConcurrent(t *testing.T) {
	s := New(4, 0)
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Not t.Fatal: the test goroutine rule. Collect and check after.
			spec := `{"id":"E3","quick":true,"seed":7}`
			code, accepted := func() (int, []byte) {
				resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
				if err != nil {
					return 0, []byte(err.Error())
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, b
			}()
			if code != http.StatusAccepted {
				bodies[c] = nil
				return
			}
			var sub struct {
				Result string `json:"result"`
			}
			if json.Unmarshal(accepted, &sub) != nil {
				return
			}
			resp, err := http.Get(ts.URL + sub.Result)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				bodies[c], _ = io.ReadAll(resp.Body)
			}
		}(c)
	}
	wg.Wait()

	if bodies[0] == nil {
		t.Fatal("first client failed")
	}
	checkJSONL(t, bodies[0], "E3")
	for c := 1; c < clients; c++ {
		if bodies[c] == nil {
			t.Fatalf("client %d failed", c)
		}
		if !bytes.Equal(bodies[0], bodies[c]) {
			t.Fatalf("client %d body differs from client 0:\n%s\nvs\n%s", c, bodies[c], bodies[0])
		}
	}

	// A later, warm resubmission replays the same bytes.
	if again := runJobOverHTTP(t, ts, `{"id":"E3","quick":true,"seed":7}`); !bytes.Equal(again, bodies[0]) {
		t.Fatal("warm resubmission body differs from the concurrent ones")
	}
	// A different seed is a different body (the seed actually flows).
	if other := runJobOverHTTP(t, ts, `{"id":"E3","quick":true,"seed":8}`); bytes.Equal(other, bodies[0]) {
		t.Fatal("seed 8 body identical to seed 7: the seed is not reaching the job")
	}
}

func TestAuditJobBody(t *testing.T) {
	s := New(2, 0)
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := runJobOverHTTP(t, ts, `{"id":"E3","mode":"audit","quick":true,"seed":1}`)
	if !strings.Contains(string(body), `"type":"audit"`) {
		t.Fatalf("audit line missing:\n%s", body)
	}
	var audit struct {
		Type       string `json:"type"`
		Violations int64  `json:"violations"`
		Summary    struct {
			Runs int64 `json:"runs"`
		} `json:"summary"`
	}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.Contains(line, `"type":"audit"`) {
			if err := json.Unmarshal([]byte(line), &audit); err != nil {
				t.Fatal(err)
			}
		}
	}
	if audit.Summary.Runs == 0 {
		t.Fatal("audit summary has no runs")
	}
	if audit.Violations != 0 {
		t.Fatalf("violations: %d", audit.Violations)
	}
	// Audit jobs replay byte-identically too.
	if again := runJobOverHTTP(t, ts, `{"id":"E3","mode":"audit","quick":true,"seed":1}`); !bytes.Equal(again, body) {
		t.Fatal("audit resubmission body differs")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// One worker, so a second job sits queued while the first runs.
	s := New(1, 0)
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var subs []struct {
		Job    string `json:"job"`
		Result string `json:"result"`
	}
	for i := 0; i < 3; i++ {
		code, accepted := postJob(t, ts, `{"id":"E13","quick":true,"seed":1}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d: %s", i, code, accepted)
		}
		var sub struct {
			Job    string `json:"job"`
			Result string `json:"result"`
		}
		if err := json.Unmarshal(accepted, &sub); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}

	// The last job is the deepest queued; cancel it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+subs[2].Job, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cancelBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// Either it was still queued (200, canceled) or the pool got to it
	// first (409) — on a loaded host both are legitimate; the test
	// asserts the contract, not the race.
	switch resp.StatusCode {
	case http.StatusOK:
		code, body := get(t, ts.URL+subs[2].Result)
		if code != http.StatusGone {
			t.Fatalf("result of canceled job: %d: %s", code, body)
		}
		code, body = get(t, ts.URL+"/jobs/"+subs[2].Job)
		if code != http.StatusOK || !strings.Contains(string(body), StateCanceled) {
			t.Fatalf("status of canceled job: %d: %s", code, body)
		}
	case http.StatusConflict:
		// Ran before we could cancel; fine.
	default:
		t.Fatalf("cancel: %d: %s", resp.StatusCode, cancelBody)
	}

	// The first two jobs still complete normally.
	for _, sub := range subs[:2] {
		code, body := get(t, ts.URL+sub.Result)
		if code != http.StatusOK {
			t.Fatalf("surviving job result: %d: %s", code, body)
		}
	}

	// Canceling a finished job conflicts.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+subs[0].Job, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel finished job: %d, want 409", resp.StatusCode)
	}
}

func TestDrainRejectsNewJobsAndFinishesBacklog(t *testing.T) {
	s := New(1, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, accepted := postJob(t, ts, `{"id":"E6","quick":true,"seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, accepted)
	}
	var sub struct {
		Result string `json:"result"`
	}
	if err := json.Unmarshal(accepted, &sub); err != nil {
		t.Fatal(err)
	}

	s.BeginDrain()
	if code, body := postJob(t, ts, `{"id":"E6","quick":true,"seed":1}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503 (%s)", code, body)
	}
	// Health reports the drain.
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz while draining: %d: %s", code, body)
	}

	// Drain returns only after the backlog ran dry, and the in-flight
	// job's result is still served.
	done := make(chan struct{})
	go func() {
		s.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return")
	}
	code, body := get(t, ts.URL+sub.Result)
	if code != http.StatusOK {
		t.Fatalf("result after drain: %d: %s", code, body)
	}
	checkJSONL(t, body, "E6")
}

func TestPoolQueueFull(t *testing.T) {
	p := NewPool(1, 1)
	// Park the worker: holding the audit gate's write side blocks any
	// run-mode job between dequeue and execution, so the backlog fills
	// deterministically.
	p.auditGate.Lock()
	j1, err := p.Submit(JobSpec{ID: "E6", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has dequeued j1 (it blocks on the gate
	// with the queue empty again).
	for i := 0; ; i++ {
		if st := j1.Status(); st.State == StateRunning {
			break
		}
		if i > 1000 {
			t.Fatal("worker never dequeued j1")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Submit(JobSpec{ID: "E6", Quick: true}); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	if _, err := p.Submit(JobSpec{ID: "E6", Quick: true}); err != ErrQueueFull {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	p.auditGate.Unlock()
	p.Drain()
	if st, _, _ := j1.Result(); st != StateDone {
		t.Fatalf("j1 state %s after drain", st)
	}
}

func TestHealthz(t *testing.T) {
	s := New(3, 0)
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 3 {
		t.Fatalf("healthz: %+v", h)
	}
}

func TestRunLoadInProcess(t *testing.T) {
	rep, err := RunLoad(LoadOptions{
		Workers:       2,
		Clients:       3,
		JobsPerClient: 2,
		Experiment:    "E6",
		Quick:         true,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalJobs != 6 || rep.Failures != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if !rep.Deterministic {
		t.Fatal("same-seed bodies differed across clients")
	}
	if rep.P50Nanos <= 0 || rep.P99Nanos < rep.P50Nanos || rep.JobsPerSec <= 0 {
		t.Fatalf("latency fields not populated: %+v", rep)
	}
	if !strings.Contains(rep.Render(), "jobs/sec") {
		t.Fatalf("render:\n%s", rep.Render())
	}
	// The report round-trips through its JSON file format.
	path := t.TempDir() + "/SERVE_logp.json"
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := bench.ReadLoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalJobs != rep.TotalJobs || back.P99Nanos != rep.P99Nanos {
		t.Fatalf("report did not round-trip: %+v vs %+v", back, rep)
	}
}
