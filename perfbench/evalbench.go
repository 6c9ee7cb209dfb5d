package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"gmark/internal/eval"
	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/usecases"
)

// The eval-mem and eval-spill inputs: a bib instance inside the
// paper's Section 7 size range, a 100-query con workload over the
// three selectivity classes, the experiments' default pair budget, and
// (for eval-spill) a varint CSR spill with 32 node ranges.
const (
	evalUsecase  = "bib"
	evalNodes    = 8000
	evalQueries  = 100
	evalMaxPairs = 50_000_000
	evalShards   = 32

	// evalInputSeed generates both the instance and the query
	// workload, so every run evaluates the same 100 queries over the
	// same graph; the run seed only orders the queries of each pass. At
	// 8,000 nodes the cost of a pass, and above all its p90 query,
	// depends so strongly on the drawn instance and queries (a few
	// quadratic queries over the few highest-degree nodes dominate)
	// that seed-drawn inputs would spread runs far beyond any bound.
	evalInputSeed = 1
)

var evalClasses = []query.SelectivityClass{query.Constant, query.Linear, query.Quadratic}

// evalInput is what an eval run sets up.
type evalInput struct {
	g        *graph.Graph
	queries  []*query.Query
	spillDir string
	relaxed  int
	orders   *rand.Rand // draws each pass's query order from the run seed
}

// evalSetup builds the eval inputs: the frozen in-memory instance and
// the query workload. tr, when set, records a span around each layer
// call.
func evalSetup(r *run, tr *tracer) (*evalInput, error) {
	cfg, err := usecases.ByName(evalUsecase, evalNodes)
	if err != nil {
		return nil, err
	}
	sink, err := graphgen.NewGraphSinkFor(cfg)
	if err != nil {
		return nil, err
	}
	id := tr.begin("graphgen.Emit", 0, 0)
	_, err = graphgen.Emit(cfg, graphgen.Options{Seed: evalInputSeed, Parallelism: r.nproc},
		wrapEdgeSink(tr, sink, "graph.sink", id, 0))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	in := &evalInput{g: sink.Graph()}
	id = tr.begin("graph.Freeze", 0, 0)
	in.g.Freeze()
	tr.end(id)

	wcfg, err := usecases.Workload("con", cfg, evalInputSeed)
	if err != nil {
		return nil, err
	}
	wcfg.Count = evalQueries
	wcfg.Classes = evalClasses
	id = tr.begin("querygen.New", 0, 0)
	gen, err := querygen.New(wcfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	col := &querygen.SliceSink{}
	id = tr.begin("querygen.Emit", 0, 0)
	_, err = gen.Emit(querygen.Options{Parallelism: r.nproc}, col)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	in.queries = col.Queries
	in.orders = rand.New(rand.NewSource(r.seed))
	for _, q := range in.queries {
		if q.Relaxed {
			in.relaxed++
		}
	}
	return in, nil
}

// writeEvalSpill writes the instance as a varint CSR spill with
// evalShards node ranges and returns its directory.
func writeEvalSpill(r *run, tr *tracer, g *graph.Graph) (string, error) {
	dir := filepath.Join(r.workDir, "spill")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	id := tr.begin("graphgen.WriteCSRSpillFromGraph", 0, 0)
	err := graphgen.WriteCSRSpillFromGraphWith(dir, g, evalNodes/evalShards+1, graphgen.SpillCompressVarint)
	tr.end(id)
	return dir, err
}

// evalPassResult is one pass over the workload.
type evalPassResult struct {
	wall      float64   // seconds for the whole pass
	latMS     []float64 // count latency of each query, by query index
	counts    []int64
	peakMB    float64 // memory held during the pass
	cache     eval.SpillCacheStats
	classSecs map[query.SelectivityClass]float64
}

// digest hashes the pass's counts in query order.
func (p *evalPassResult) digest() string {
	var b strings.Builder
	for i, c := range p.counts {
		fmt.Fprintf(&b, "%d:%d\n", i, c)
	}
	return sha256Hex([]byte(b.String()))
}

// evalPass counts every query once at Workers = nproc, in memory or
// over a freshly opened spill source, and checks each count against
// want.
func evalPass(r *run, in *evalInput, spill bool, want []int64, tr *tracer, pass int) (*evalPassResult, error) {
	res := &evalPassResult{
		latMS:     make([]float64, len(in.queries)),
		counts:    make([]int64, len(in.queries)),
		classSecs: make(map[query.SelectivityClass]float64),
	}
	budget := eval.Budget{MaxPairs: evalMaxPairs}
	opt := eval.EvalOptions{Workers: r.nproc}
	r.mem.mark()
	t0 := now()
	var src *eval.SpillSource
	if spill {
		var err error
		if src, err = eval.OpenSpillSource(in.spillDir, 0); err != nil {
			return nil, err
		}
	}
	for _, i := range in.orders.Perm(len(in.queries)) {
		q := in.queries[i]
		class := q.Class.String()
		id := tr.begin("eval.count."+class, 0, pass*len(in.queries)+i)
		q0 := now()
		var n int64
		var err error
		if spill {
			n, err = eval.CountOverSpillWith(src, q, budget, opt)
		} else {
			n, err = eval.CountWith(in.g, q, budget, opt)
		}
		d := since(q0)
		tr.end(id)
		res.latMS[i] = d * 1e3
		res.classSecs[q.Class] += d
		res.counts[i] = n
		if err == nil && n != want[i] {
			err = fmt.Errorf("count %d, reference %d", n, want[i])
		}
		r.op(err, fmt.Sprintf("query %d (%s)", i, class))
	}
	res.wall = since(t0)
	res.peakMB = r.mem.peakMB()
	if src != nil {
		res.cache = src.CacheStats()
	}
	return res, nil
}

// evalReference counts every query by a second route: the sequential
// in-memory evaluator for eval-mem, the parallel in-memory evaluator
// for eval-spill (whose spill counts must equal it).
func evalReference(r *run, in *evalInput, spill bool) []int64 {
	budget := eval.Budget{MaxPairs: evalMaxPairs}
	opt := eval.EvalOptions{Workers: 1}
	if spill {
		opt.Workers = r.nproc
	}
	want := make([]int64, len(in.queries))
	for i, q := range in.queries {
		n, err := eval.CountWith(in.g, q, budget, opt)
		if err != nil {
			r.op(err, fmt.Sprintf("reference count of query %d", i))
			want[i] = -1
			continue
		}
		want[i] = n
	}
	return want
}

// runEval drives eval-mem (spill false) and eval-spill (spill true).
func runEval(r *run, spill bool) error {
	var setups []float64
	var in *evalInput
	for i := 0; moreSetups(setups); i++ {
		var tr *tracer
		if i == 0 {
			tr = r.tr
		}
		t0 := now()
		var err error
		if in, err = evalSetup(r, tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, since(t0))
	}
	r.e2e["setup_s"] = median(setups)
	// The spill is written once, outside setup_s: creating its few
	// hundred files costs what the checkout's filesystem makes it cost,
	// which moves severalfold between runs on a shared disk.
	if spill {
		var err error
		if in.spillDir, err = writeEvalSpill(r, r.tr, in.g); err != nil {
			return err
		}
	}
	want := evalReference(r, in, spill)
	r.prov["input"] = map[string]any{
		"usecase": evalUsecase, "nodes": in.g.NumNodes(), "edges": in.g.NumEdges(),
		"queries": len(in.queries), "classes": "constant,linear,quadratic", "workload_kind": "con",
		"max_pairs": evalMaxPairs, "workers": r.nproc, "spill": spill,
		"shard_nodes": evalNodes/evalShards + 1, "cache": "default",
		"input_seed": evalInputSeed, "run_seed_orders_queries": true,
	}

	var passes []*evalPassResult
	t0 := now()
	for p := 0; p == 0 || (r.tr == nil && since(t0) < r.seconds); p++ {
		res, err := evalPass(r, in, spill, want, nil, p)
		if err != nil {
			return err
		}
		passes = append(passes, res)
	}
	if r.tr != nil {
		res, err := evalPass(r, in, spill, want, r.tr, len(passes))
		if err != nil {
			return err
		}
		passes = append(passes, res)
	}

	digest := passes[0].digest()
	for i, p := range passes {
		r.check(p.digest() == digest, "pass %d count digest equals pass 0", i)
	}
	ok, err := digestStore(fmt.Sprintf("counts-%s%d-seed%d", evalUsecase, evalNodes, evalInputSeed), digest)
	if err != nil {
		return err
	}
	r.check(ok, "count digest equals the one recorded by earlier eval runs")
	r.prov["count_digest"] = digest

	measured := passes
	if r.tr != nil {
		measured = passes[:1] // the untraced pass
	}
	// Each query's latency is its median over the passes, and the
	// percentiles are taken over those 100 medians: a single pass's p50
	// moved by 15% from pass to pass as queries traded places around
	// the middle, while a query's median over a run holds still.
	var rates, peaks []float64
	perQuery := make([][]float64, len(in.queries))
	for _, p := range measured {
		rates = append(rates, float64(len(p.latMS))/p.wall)
		peaks = append(peaks, p.peakMB)
		for i, ms := range p.latMS {
			perQuery[i] = append(perQuery[i], ms)
		}
	}
	queryMS := make([]float64, len(perQuery))
	for i, ms := range perQuery {
		queryMS[i] = median(ms)
	}
	r.e2e["throughput"] = median(rates)
	r.e2e["latency_p50_ms"] = quantile(queryMS, 0.5)
	r.e2e["latency_tail_ms"] = quantile(queryMS, 0.9)
	r.e2e["peak_mem_mb"] = median(peaks)
	r.name("counts_per_s", r.e2e["throughput"], "1/s")
	r.name("count_p50_ms", r.e2e["latency_p50_ms"], "ms")
	r.name("count_p90_ms", r.e2e["latency_tail_ms"], "ms")
	r.prov["passes"] = len(measured)
	r.prov["latency_samples_per_pass"] = len(in.queries)
	r.prov["latency_tail"] = "p90 over the queries of each query's median latency over the passes"

	if r.tr != nil {
		return evalLayers(r, in, spill, passes[0], passes[1])
	}
	return nil
}

// evalLayers fills the per-layer metrics of a traced eval run from its
// setup spans, the traced pass and the two layer probes.
func evalLayers(r *run, in *evalInput, spill bool, plain, traced *evalPassResult) error {
	r.check(plain.digest() == traced.digest(), "traced and untraced count digests agree")
	r.layers["trace.overhead_s"] = traced.wall - plain.wall
	for _, c := range evalClasses {
		r.layers["eval.count_s."+c.String()] = traced.classSecs[c]
	}
	_, self := spanTotals(r.tr.finish())
	r.layers["graphgen.emit_s"] = self["graphgen.Emit"]
	r.layers["graph.freeze_s"] = self["graph.Freeze"]
	r.layers["querygen.new_s"] = self["querygen.New"]
	r.layers["querygen.emit_s"] = self["querygen.Emit"]
	r.layers["querygen.relaxed_ratio"] = float64(in.relaxed) / float64(len(in.queries))
	if spill {
		st := traced.cache
		lookups := st.Hits + st.Loads
		r.layers["eval.cache.lookups"] = float64(lookups)
		r.layers["eval.cache.hit_ratio"] = float64(st.Hits) / float64(max(lookups, 1))
		r.layers["eval.cache.loads"] = float64(st.Loads)
		r.layers["eval.cache.evictions"] = float64(st.Evictions)
		r.layers["eval.cache.dedup_hits"] = float64(st.DedupHits)
		r.layers["eval.cache.disk_bytes"] = float64(st.DiskBytesLoaded)
		r.layers["eval.cache.peak_bytes"] = float64(st.PeakBytes)
	}

	// The layer probes run over the same instance in both eval
	// workloads; eval-mem writes its spill only now, outside setup.
	dir := in.spillDir
	if !spill {
		var err error
		if dir, err = writeEvalSpill(r, nil, in.g); err != nil {
			return err
		}
	}
	return runProbes(r, in.g, dir)
}
