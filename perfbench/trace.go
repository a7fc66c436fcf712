package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/logp"
)

// span is one timed call the benchmark made into a module: the layer
// (module name), what was called, when, and the span that caused it.
// Guest time is not recorded as a span per Script.Next call — there
// are millions per pass — but estimated onto the span whose engine made
// the calls, which is what a self-time split needs.
type span struct {
	ID     int32            `json:"id"`
	Parent int32            `json:"parent"` // -1 for a root
	Layer  string           `json:"layer"`
	Name   string           `json:"name"`
	Start  int64            `json:"startNs"` // since the recorder began
	End    int64            `json:"endNs"`
	Guest  int64            `json:"guestNs,omitempty"`
	Calls  int64            `json:"guestCalls,omitempty"`
	Args   map[string]int64 `json:"args,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory. A nil *recorder
// is the untraced state: every method is a no-op, so untraced passes
// run the same code without timing their calls.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.base).Nanoseconds() }

// begin opens a span and returns its id (-1 when untraced).
func (r *recorder) begin(parent int32, layer, name string) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: r.now()})
	return id
}

// end closes span id.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = r.now()
}

// add records a span whose interval was measured elsewhere (serve jobs
// are timed from their due time, which no begin call marks).
func (r *recorder) add(parent int32, layer, name string, start, end time.Time, args map[string]int64) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds(), Args: args,
	})
	return id
}

// guest wraps s so that its Next calls are timed onto span id; when
// untraced it returns s itself.
func (r *recorder) guest(id int32, s logp.Script) logp.Script {
	if r == nil || id < 0 {
		return s
	}
	return &timedScript{s: s, sp: &r.spans[id]}
}

// guestSample is the sampling period of guest timing: one Next call in
// guestSample is timed and stands for the calls around it. Timing every
// call would cost two clock reads per operation, several times what
// the scale scripts themselves spend in Next.
const guestSample = 16

// timedScript estimates the host time of a Script's Next calls: the
// guest layer's self time inside the engine span that drives it. The
// span pointer stays valid because nothing appends spans while an
// engine runs the script.
type timedScript struct {
	s  logp.Script
	sp *span
}

func (t *timedScript) Active(id int) bool { return t.s.Active(id) }

func (t *timedScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	t.sp.Calls++
	if t.sp.Calls%guestSample != 0 {
		return t.s.Next(id, prev)
	}
	t0 := time.Now()
	op := t.s.Next(id, prev)
	t.sp.Guest += guestSample * time.Since(t0).Nanoseconds()
	return op
}

// sum totals the durations, guest time and guest calls of the spans
// matching pick.
func (r *recorder) sum(pick func(*span) bool) (dur, guest, calls int64) {
	if r == nil {
		return 0, 0, 0
	}
	for i := range r.spans {
		if s := &r.spans[i]; pick(s) {
			dur += s.dur()
			guest += s.Guest
			calls += s.Calls
		}
	}
	return dur, guest, calls
}

// write stores the spans as JSON lines under dir, one file per run.
func (r *recorder) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
