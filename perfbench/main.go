// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time with the workload seed given on the command line,
// checks every output it produces, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload gen-batch --seed 7 --seconds 15 --trace 0
//
// Workloads, metric names, units and bounds are declared in
// BENCHMARK.json at the repository root, which the benchmark reads so
// the two cannot drift. With --trace 0 the result carries every
// end-to-end metric; with --trace 1 the run is traced (spans around
// each call the benchmark makes into a layer, timing sink wrappers,
// layer probes) and the result carries every per-layer metric.
// Provenance and the workload's named metrics are printed on the line
// before the result, and the traced run's spans are written under
// .bench_build/spans/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// buildDir holds everything the benchmark leaves behind, relative to
// the repository root it runs from.
const buildDir = ".bench_build"

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	nproc    int
	workDir  string
	tr       *tracer // nil unless --trace 1
	mem      *memSampler

	attempted, failed int

	// e2e and layers are keyed by BENCHMARK.json metric names; named
	// holds the workload's own metrics (edges_per_s, count_p90_ms, ...)
	// printed with the provenance.
	e2e    map[string]float64
	layers map[string]float64
	named  map[string]metricValue
	prov   map[string]any
}

// op records the outcome of one operation: a generation iteration, a
// counted query, a served slice, or one correctness gate.
func (r *run) op(err error, what string) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %v\n", what, err)
	}
}

// check records a correctness gate as one operation.
func (r *run) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = errors.New("check failed")
	}
	r.op(err, fmt.Sprintf(format, args...))
}

// name records one of the workload's named metrics.
func (r *run) name(name string, value float64, unit string) {
	r.named[name] = metricValue{Value: value, Unit: unit}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"gen-batch":    runGenBatch,
	"eval-mem":     func(r *run) error { return runEval(r, false) },
	"eval-spill":   func(r *run) error { return runEval(r, true) },
	"serve-slices": runServe,
}

func main() {
	workload := flag.String("workload", "", "workload name from BENCHMARK.json")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	if err := benchmark(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// benchmark runs one workload and prints its result.
func benchmark(workload string, seed int64, seconds float64, traced bool) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	drive, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("workload %q is not declared in BENCHMARK.json", workload)
	}
	workDir := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		nproc:    runtime.NumCPU(),
		workDir:  workDir,
		e2e:      make(map[string]float64),
		layers:   make(map[string]float64),
		named:    make(map[string]metricValue),
	}
	if traced {
		r.tr = newTracer()
		// A layer this workload does not call spends no time and does
		// no work in it, so its metrics read 0 unless the workload sets
		// them.
		for _, m := range spec.PerLayer {
			r.layers[m.Name] = 0
		}
	}
	r.prov = provenance(r)
	r.mem = startMemSampler()
	defer r.mem.close()
	mem0 := readMem()
	if err := drive(r); err != nil {
		return err
	}
	mem1 := readMem()
	if traced {
		r.layers["runtime.alloc_mb"] = float64(mem1.totalAlloc-mem0.totalAlloc) / (1 << 20)
		r.layers["runtime.gc_cycles"] = float64(mem1.numGC - mem0.numGC)
		r.layers["fail_ratio"] = float64(r.failed) / float64(max(r.attempted, 1))
		if err := r.writeSpans(); err != nil {
			return err
		}
	}
	r.name("fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	r.name("peak_rss_mb", peakRSSMB(), "MB")
	return r.print(spec, traced)
}

// readSpec loads BENCHMARK.json.
func readSpec(path string) (*benchSpec, error) {
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

// writeSpans writes the traced run's spans under .bench_build/spans/.
func (r *run) writeSpans() error {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	spans := r.tr.finish()
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	r.prov["span_file"] = path
	r.prov["spans"] = len(spans)
	return nil
}

// print emits the provenance line and then the result line. Every
// metric the spec declares for this mode must have been measured, and
// nothing else is printed in the result.
func (r *run) print(spec *benchSpec, traced bool) error {
	decl, got := spec.EndToEnd, r.e2e
	if traced {
		decl, got = spec.PerLayer, r.layers
	}
	metrics := make(map[string]metricValue, len(decl))
	for _, m := range decl {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("workload %s measured no %s", r.workload, m.Name)
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range got {
		if _, ok := metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics %s are not declared in BENCHMARK.json", strings.Join(extra, ", "))
	}
	info, err := json.Marshal(map[string]any{"provenance": r.prov, "workload_metrics": r.named})
	if err != nil {
		return err
	}
	fmt.Println(string(info))
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// provenance names the host, toolchain and code a result came from.
func provenance(r *run) map[string]any {
	p := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"traced":     r.tr != nil,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     gitCommit("."),
		"output_fs":  fsType(r.workDir),
	}
	if digest, err := sourceDigest("."); err == nil {
		p["source_sha256"] = digest
	}
	return p
}

// gitCommit resolves HEAD from a .git directory without running git;
// a checkout without one reports "none" (source_sha256 still pins the
// code).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes the Go sources and module files of the checkout
// (every .go, go.mod and go.sum outside dot directories), so a result
// names the exact code it measured even where there is no git history.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	var all []byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		all = append(all, filepath.ToSlash(f)...)
		all = append(all, 0)
		all = append(all, sha256Hex(data)...)
		all = append(all, '\n')
	}
	return sha256Hex(all), nil
}

// digestStore compares an output digest with the one recorded for the
// same key by an earlier run in this checkout, recording it on first
// sight. It reports whether the two agree.
func digestStore(key, digest string) (bool, error) {
	dir := filepath.Join(buildDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(dir, key)
	prev, err := os.ReadFile(path)
	if err == nil {
		return string(prev) == digest, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return false, err
	}
	return true, os.WriteFile(path, []byte(digest), 0o644)
}
