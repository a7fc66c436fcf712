// Command perfbench is the repository benchmark. It runs one named
// workload from a seed, checks every simulated output, and prints each
// metric by name with its unit:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) alternates untraced passes with passes that record a
// span around every call the benchmark makes into a module, keeps the
// spans in memory, writes them to .bench_build/traces at the end, and
// reports the per-layer metrics, including the tracing overhead. The
// last line of standard output is the result object; the lines before
// it carry the run's provenance and details. See README.md for the
// workloads and the definition of every metric.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// heldOutSeed is a seed no benchmark setting was tuned on; a claimed
// gain must also hold when the benchmark runs with it.
const heldOutSeed = 20261017

// workloads maps each workload name to the builder of its set-up.
var workloads = map[string]func(*harness) (passWorkload, error){
	"paper-suite":  newPaperSuite,
	"scale-route":  newScaleRoute,
	"scale-replay": newScaleReplay,
	"serve-mixed":  newServeMixed,
}

// metricName is the charset and length every metric name must keep.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: paper-suite, scale-route, scale-replay or serve-mixed")
	seed := fl.Uint64("seed", 1, "seed every input of the workload is drawn from")
	seconds := fl.Int("seconds", 10, "seconds of timed passes")
	trace := fl.Int("trace", 0, "1 runs traced and reports the per-layer metrics, 0 the end-to-end metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	build, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fl.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	h := newHarness(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, ".")
	res, err := h.execute(build)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range h.failures {
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
	}
	out := bufio.NewWriter(stdout)
	enc := json.NewEncoder(out)
	for _, line := range []any{
		map[string]any{"provenance": h.provenance(*seconds)},
		map[string]any{"info": h.info},
		res,
	} {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// execute runs the workload and assembles the result: the end-to-end
// metrics when untraced, the per-layer metrics when traced.
func (h *harness) execute(build func(*harness) (passWorkload, error)) (result, error) {
	defer h.heap.close()
	procs, err := h.measure(build)
	if err != nil {
		return result{}, err
	}
	res, err := h.assemble(h.passMetrics(procs))
	if err == nil {
		h.writeTrace()
	}
	return res, err
}

// assemble builds the result object: the end-to-end metrics e2e of an
// untraced run, or the per-layer metrics of a traced one, with the host
// times beside them.
func (h *harness) assemble(e2e map[string]metric) (result, error) {
	if h.attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	ms := e2e
	if h.traced {
		ms = h.layerMetrics()
		serveLayer := h.serveLayer
		if serveLayer == nil {
			serveLayer = serveMetrics(nil, 0) // no jobs: every serve.* figure is 0
		}
		for n, m := range serveLayer {
			ms[n] = m
		}
		for n, m := range h.hostMetrics() {
			ms[n] = m
		}
		ms["failed_frac"] = metric{float64(h.failed) / float64(h.attempted), "frac"}
	}
	for n := range ms {
		if !metricName.MatchString(n) {
			return result{}, fmt.Errorf("metric name %q breaks the name rule", n)
		}
	}
	return result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: ms}, nil
}

// provenance identifies what produced the result: the code (commit when
// the build saw one, and a digest of the Go sources either way), the
// toolchain, the host, the seed and whether the run was traced.
func (h *harness) provenance(seconds int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      h.workload,
		"seed":          h.seed,
		"held_out_seed": heldOutSeed,
		"traced":        h.traced,
		"seconds":       seconds,
		"commit":        commit,
		"source_sha256": sourceDigest(h.root),
		"go_version":    runtime.Version(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		// The share of all CPU time the hypervisor gave to other
		// guests while this run went on: timings from runs with much
		// steal are slower for reasons outside the code.
		"host_steal_frac": h.stealFrac(),
	}
}

// stealFrac is the host's CPU steal over the run as a share of CPU
// time, or -1 where /proc/stat is not readable.
func (h *harness) stealFrac() float64 {
	steal, total, ok := cpuTicks()
	if !ok || !h.ticksOK || total <= h.totalTicks {
		return -1
	}
	return float64(steal-h.stealTicks) / float64(total-h.totalTicks)
}

// sourceDigest hashes every Go source and module file under root, so
// results from a checkout without git history still name their code.
func sourceDigest(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(sum, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		sum.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// cpuTicks returns the host's CPU steal and total time from the first
// line of /proc/stat, in clock ticks; ok is false where there is none.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
