package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
)

// netsimExperiments are the regular experiments whose time is spent in
// the packet-network simulator (MeasureGL and Router.Route); their
// spans make up the netsim layer of paper-suite.
var netsimExperiments = map[string]bool{"E1": true, "E7": true, "E10": true, "E13": true}

func experimentIDs() []string {
	var ids []string
	for _, e := range bench.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// paperDigestsFile holds SHA-256 digests of the paper-size tables for
// the seeds they were recorded at: seed -> experiment ID -> digest.
const paperDigestsFile = "perfbench/testdata/paper_digests.json"

func readPaperDigests(root string) (map[string]map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, paperDigestsFile))
	if err != nil {
		return nil, err
	}
	var d map[string]map[string]string
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", paperDigestsFile, err)
	}
	return d, nil
}

// paperSuite runs every regular registry experiment at paper size,
// one table per operation, with a warm cache as a service worker
// would hold one.
type paperSuite struct {
	cfg     bench.Config
	exps    []bench.Experiment
	digests map[string]map[string]string // see paperDigestsFile
}

func newPaperSuite(h *harness) (passWorkload, error) {
	digests, err := readPaperDigests(h.root)
	if err != nil {
		return nil, err
	}
	// Digests recorded for this seed are the reference every table is
	// held to; other seeds are held to the run's first tables, and
	// verify checks the code against the digests of goldenSeed.
	for id, d := range digests[fmt.Sprint(h.seed)] {
		h.ref["paper/"+id] = d
	}
	return &paperSuite{cfg: bench.Config{Seed: h.seed, Warm: bench.NewWarm()}, exps: bench.All(), digests: digests}, nil
}

func (w *paperSuite) pass(h *harness, rec *recorder, root int32, _ *layerCounts) int {
	for _, e := range w.exps {
		sp := rec.begin(root, "bench", e.ID)
		tab := e.Run(w.cfg)
		rec.end(sp)
		h.match("paper/"+e.ID, digest(tab.Render()))
	}
	return len(w.exps)
}

func (w *paperSuite) procs() int { return 0 }

// verify holds the regular registry to checked-in tables through the
// same Experiment.Run entry the timed passes use: when the run's seed
// has no recorded digests, every paper-size table is rendered once
// more, cold, at goldenSeed and compared with that seed's digests; then
// the quick-mode goldens are checked.
func (w *paperSuite) verify(h *harness) {
	if _, ok := w.digests[fmt.Sprint(h.seed)]; !ok {
		want := w.digests[fmt.Sprint(goldenSeed)]
		for _, e := range w.exps {
			got := digest(e.Run(bench.Config{Seed: goldenSeed}).Render())
			h.check(got == want[e.ID], "paper/%s at seed %d: digest %.16s, recorded %.16s", e.ID, goldenSeed, got, want[e.ID])
		}
	}
	for _, id := range []string{"E2", "E3", "E6"} {
		checkRegistryGolden(h, id)
	}
}

// checkRegistryGolden renders experiment id at -quick, seed 1, and
// compares it with the registry's golden table.
func checkRegistryGolden(h *harness, id string) {
	want, err := os.ReadFile(filepath.Join(h.root, "internal/bench/testdata", "golden_"+id+"_quick.txt"))
	if err != nil {
		h.fail("golden %s: %v", id, err)
		return
	}
	tab, err := bench.RunJob(bench.Config{Quick: true, Seed: goldenSeed}, id)
	if err != nil {
		h.fail("golden %s: %v", id, err)
		return
	}
	h.check(tab.Render() == string(want), "golden %s: quick table differs from the registry's golden", id)
}
