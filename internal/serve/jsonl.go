package serve

import (
	"bytes"
	"encoding/json"

	"repro/internal/bench"
	"repro/internal/logp"
)

// The result body of a job is JSONL: one "table" header line, one
// "row" line per table row, one "note" line per table note, an
// "audit" line for audit-mode jobs, and a closing "done" line. Every
// line is a json.Marshal of a fixed-field struct, so the body is a
// deterministic function of the table and summary — the byte-identity
// the service replays across submissions rests on this.

type tableLine struct {
	Type    string   `json:"type"`
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
}

type rowLine struct {
	Type  string   `json:"type"`
	ID    string   `json:"id"`
	Cells []string `json:"cells"`
}

type noteLine struct {
	Type string `json:"type"`
	ID   string `json:"id"`
	Note string `json:"note"`
}

type auditLine struct {
	Type       string            `json:"type"`
	ID         string            `json:"id"`
	Summary    logp.AuditSummary `json:"summary"`
	Violations int64             `json:"violations"`
}

type doneLine struct {
	Type       string `json:"type"`
	ID         string `json:"id"`
	Mode       string `json:"mode"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
	Rows       int    `json:"rows"`
	Violations int64  `json:"violations"`
}

// encodeJobBody renders the JSONL result body for a completed job.
// sum is nil for run-mode jobs.
func encodeJobBody(spec JobSpec, tab *bench.Table, sum *logp.AuditSummary) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(tableLine{Type: "table", ID: tab.ID, Title: tab.Title, Columns: tab.Columns}); err != nil {
		return nil, err
	}
	for _, row := range tab.Rows {
		if err := enc.Encode(rowLine{Type: "row", ID: tab.ID, Cells: row}); err != nil {
			return nil, err
		}
	}
	for _, note := range tab.Notes {
		if err := enc.Encode(noteLine{Type: "note", ID: tab.ID, Note: note}); err != nil {
			return nil, err
		}
	}
	var violations int64
	if sum != nil {
		violations = sum.ViolationCount
		if err := enc.Encode(auditLine{Type: "audit", ID: tab.ID, Summary: *sum, Violations: violations}); err != nil {
			return nil, err
		}
	}
	err := enc.Encode(doneLine{
		Type: "done", ID: tab.ID, Mode: spec.Mode, Seed: spec.Seed,
		Quick: spec.Quick, Rows: len(tab.Rows),
		Violations: violations,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
