// Command perfbench is Orion's end-to-end benchmark. It runs one workload
// against the system's public entry points, checks the outputs against
// references outside the code path under test, and prints every metric
// named in BENCHMARK.json: the end-to-end metrics on an untraced run
// (--trace 0) or the per-layer metrics on a traced run (--trace 1).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
//
// Workloads: paper-suite (the 12 paper experiments, closed loop),
// compile-cold (every occupancy level of freshly parsed kernels, closed
// loop) and serve-open (an open-loop Poisson load on an in-process
// daemon). NOTES.md defines every metric per workload.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when every
// correctness check passed, 1 when one failed or the run broke, and 2 on
// bad usage or a -race build.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// env is what every workload receives: the run's parameters and the
// instant the process started (set-up time is measured from it).
type env struct {
	start   time.Time
	seed    int64
	seconds time.Duration
	trace   bool
	nproc   int
}

// result is one workload run's outcome before it is filtered down to
// the metric list BENCHMARK.json asks for.
type result struct {
	attempted int
	failed    int
	// problems lists each failed operation or check, printed to stderr.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	// prov carries workload-specific provenance (grid scale, rate
	// ladder) into the provenance line.
	prov map[string]any
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, prov: map[string]any{}}
}

// fail records one failed operation or correctness check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check and records it as failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchSpec is the part of BENCHMARK.json perfbench reads: the metric
// lists are the single source of the names and units it prints.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var workloads = map[string]func(*env) (*result, error){
	"paper-suite":  runSuite,
	"compile-cold": runCompile,
	"serve-open":   runServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "paper-suite, compile-cold or serve-open")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if raceEnabled {
		fmt.Fprintln(stderr, "perfbench: built with -race; its instrumentation would dominate every timing, rebuild without it")
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-suite, compile-cold, serve-open), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	e := &env{start: start, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, nproc: nproc}

	res, err := fn(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: FAILED:", p)
	}

	prov := provenance(e, *workload)
	for k, v := range res.prov {
		prov[k] = v
	}
	provJSON, err := json.Marshal(prov)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", provJSON)

	list, values := spec.EndToEnd, res.e2e
	if e.trace {
		list, values = spec.PerLayer, res.layer
	}
	out, err := selectMetrics(list, values, e.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, m := range list {
		fmt.Fprintf(stdout, "%-34s %16.6g %-6s (%s is better)\n", m.Name, out[m.Name].Value, m.Unit, m.Better)
	}
	correct := res.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]metricOutput `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the listed metrics out of a workload's values. An
// end-to-end metric the workload did not measure is an error; a
// per-layer metric it did not measure reads 0 (the layer did no work on
// this workload). A value the workload set under a name BENCHMARK.json
// does not list is an error too, so the two cannot drift apart.
func selectMetrics(list []metricSpec, values map[string]float64, zeroMissing bool) (map[string]metricOutput, error) {
	out := make(map[string]metricOutput, len(list))
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = metricOutput{Value: v, Unit: m.Unit}
	}
	var unknown []string
	for name := range values {
		if _, ok := out[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics missing from BENCHMARK.json: %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// provenance describes what was measured and where: the source revision
// (a VCS revision when the build has one, always a digest of the Go
// sources), toolchain, processor and the run's parameters.
func provenance(e *env, workload string) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      workload,
		"seed":          e.seed,
		"seconds":       e.seconds.Seconds(),
		"trace":         e.trace,
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"nproc":         e.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
	}
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// hidden directories such as the build output), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
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
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// another reports whether a closed-loop workload starts another pass:
// always until it has made minPasses, then while one more pass of the
// average length so far still ends within the measured seconds.
func another(passes, minPasses int, t0 time.Time, seconds time.Duration) bool {
	if passes < minPasses {
		return true
	}
	elapsed := time.Since(t0)
	return elapsed+elapsed/time.Duration(passes) <= seconds
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mib = 1 << 20

// liveHeapMiB forces a collection and reports the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / mib
}

// allocatedMiB reports the cumulative bytes allocated by the process.
func allocatedMiB() float64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.TotalAlloc) / mib
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
