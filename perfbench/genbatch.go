package main

import (
	"fmt"
	"os"
	"path/filepath"

	"gmark/internal/graphgen"
	"gmark/internal/querygen"
	"gmark/internal/schema"
	"gmark/internal/usecases"
)

// The gen-batch input: the paper's primary path, an lsn instance
// emitted into a varint CSR spill and a binary partitioned edge list at
// once, then a coupled con workload translated into all four syntaxes.
const (
	genUsecase = "lsn"
	genNodes   = 1_000_000
	genQueries = 1000
)

// genIter is one measured batch iteration.
type genIter struct {
	graphSecs  float64 // sink creation, Emit and its Flush
	queryWall  float64 // query sink creation and Emit
	peakMB     float64 // memory held during the iteration
	edges      int
	digest     string
	spillBytes int64
	partBytes  int64
	queryBytes int64
	relaxed    int
	queries    int
}

// runGenBatch drives the gen-batch workload.
func runGenBatch(r *run) error {
	// Setup resolves the configurations and builds the workload
	// generator, whose New precomputes the schema graph and the
	// selectivity graphs; each iteration then emits from it.
	var setups []float64
	var cfg *schema.GraphConfig
	var gen *querygen.Generator
	for i := 0; moreSetups(setups); i++ {
		var tr *tracer
		if i == 0 {
			tr = r.tr
		}
		t0 := now()
		var err error
		if cfg, err = usecases.ByName(genUsecase, genNodes); err != nil {
			return err
		}
		wcfg, err := usecases.Workload("con", cfg, r.seed)
		if err != nil {
			return err
		}
		wcfg.Count = genQueries
		id := tr.begin("querygen.New", 0, 0)
		gen, err = querygen.New(wcfg)
		tr.end(id)
		if err != nil {
			return err
		}
		setups = append(setups, since(t0))
	}
	r.e2e["setup_s"] = median(setups)
	r.prov["input"] = map[string]any{
		"usecase": genUsecase, "nodes": genNodes, "expected_edges": graphgen.ExpectedEdges(cfg),
		"queries": genQueries, "workload_kind": "con", "syntaxes": "sparql,cypher,sql,datalog",
		"sinks":       "CSRSpillSink(varint, default shard width) + binary PartitionedSink",
		"parallelism": r.nproc,
	}

	var iters []*genIter
	t0 := now()
	for i := 0; i == 0 || (r.tr == nil && since(t0) < r.seconds); i++ {
		it, err := genIteration(r, cfg, gen, nil, i)
		if err != nil {
			return err
		}
		iters = append(iters, it)
	}
	if r.tr != nil {
		it, err := genIteration(r, cfg, gen, r.tr, len(iters))
		if err != nil {
			return err
		}
		iters = append(iters, it)
	}
	for i, it := range iters {
		r.check(it.digest == iters[0].digest, "iteration %d output digest equals iteration 0", i)
	}
	ok, err := digestStore(fmt.Sprintf("gen-batch-seed%d", r.seed), iters[0].digest)
	if err != nil {
		return err
	}
	r.check(ok, "output digest equals the one recorded for seed %d", r.seed)
	r.prov["output_digest"] = iters[0].digest

	measured := iters
	if r.tr != nil {
		measured = iters[:1]
	}
	// The bounded metrics cover the graph phase: sink creation, Emit
	// into both sinks and their Flush. The workload phase is dominated
	// by creating 4,000 small files, whose cost depends on the
	// checkout's filesystem and, on a shared disk, moves severalfold
	// between runs; it is reported by name only.
	var rates, queryRates, graphMS, queryMS, peaks []float64
	for _, it := range measured {
		peaks = append(peaks, it.peakMB)
		rates = append(rates, float64(it.edges)/it.graphSecs)
		queryRates = append(queryRates, float64(it.queries)/it.queryWall)
		graphMS = append(graphMS, it.graphSecs*1e3)
		queryMS = append(queryMS, it.queryWall*1e3)
	}
	first := iters[0]
	r.e2e["throughput"] = median(rates)
	r.e2e["latency_p50_ms"] = median(graphMS)
	r.e2e["latency_tail_ms"] = quantile(graphMS, 0.75)
	r.e2e["peak_mem_mb"] = median(peaks)
	r.name("edges_per_s", r.e2e["throughput"], "1/s")
	r.name("gen_queries_per_s", median(queryRates), "1/s")
	r.name("spill_bytes_per_edge", float64(first.spillBytes)/float64(first.edges), "B/edge")
	r.prov["iterations"] = len(measured)
	r.prov["graph_phase_ms"] = graphMS
	r.prov["workload_phase_ms"] = queryMS
	r.prov["edges"] = first.edges
	r.prov["latency_tail"] = "upper quartile of the graph phases: a run has about five, too few for a higher percentile"

	if r.tr != nil {
		plain, traced := iters[0], iters[1]
		r.check(plain.digest == traced.digest, "traced and untraced output digests agree")
		r.layers["trace.overhead_s"] = traced.graphSecs - plain.graphSecs
		dur, self := spanTotals(r.tr.finish())
		r.layers["graphgen.emit_s"] = self["graphgen.Emit"]
		r.layers["graphgen.csrspill.add_s"] = dur["graphgen.csrspill.add"]
		r.layers["graphgen.csrspill.flush_s"] = dur["graphgen.csrspill.flush"]
		r.layers["graphgen.partition.add_s"] = dur["graphgen.partition.add"]
		r.layers["graphgen.partition.flush_s"] = dur["graphgen.partition.flush"]
		r.layers["graphgen.csrspill.bytes_per_edge"] = float64(traced.spillBytes) / float64(traced.edges)
		r.layers["graphgen.partition.bytes_per_edge"] = float64(traced.partBytes) / float64(traced.edges)
		r.layers["querygen.new_s"] = self["querygen.New"]
		r.layers["querygen.emit_s"] = self["querygen.Emit"]
		r.layers["querygen.relaxed_ratio"] = float64(traced.relaxed) / float64(traced.queries)
		r.layers["translate.write_s"] = dur["translate.add"] + dur["translate.flush"]
		r.layers["translate.bytes"] = float64(traced.queryBytes)
	}
	return nil
}

// genIteration runs one batch generation into a fresh output directory
// and checks what it wrote. tr, when set, wraps both edge sinks and
// the query sink in timing wrappers and records the layer calls.
func genIteration(r *run, cfg *schema.GraphConfig, gen *querygen.Generator, tr *tracer, iter int) (*genIter, error) {
	dir := filepath.Join(r.workDir, "gen")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	csrDir, partDir, queryDir := filepath.Join(dir, "csr"), filepath.Join(dir, "part"), filepath.Join(dir, "queries")
	it := &genIter{}

	r.mem.mark()
	t0 := now()
	csr, err := graphgen.NewCSRSpillSinkWith(csrDir, cfg, 0, graphgen.SpillCompressVarint)
	if err != nil {
		return nil, err
	}
	part, err := graphgen.NewBinaryPartitionedSink(partDir, cfg)
	if err != nil {
		return nil, err
	}
	id := tr.begin("graphgen.Emit", 0, iter)
	sink := graphgen.MultiEdgeSink(
		wrapEdgeSink(tr, csr, "graphgen.csrspill", id, iter),
		wrapEdgeSink(tr, part, "graphgen.partition", id, iter))
	it.edges, err = graphgen.Emit(cfg, graphgen.Options{Seed: r.seed, Parallelism: r.nproc}, sink)
	tr.end(id)
	r.op(err, fmt.Sprintf("iteration %d: graph emission", iter))
	if err != nil {
		return nil, err
	}
	it.graphSecs = since(t0)

	t1 := now()
	dirSink, err := querygen.NewSyntaxDirSink(queryDir, nil)
	if err != nil {
		return nil, err
	}
	id = tr.begin("querygen.Emit", 0, iter)
	var qsink querygen.QuerySink = dirSink
	timed := &timedQuerySink{s: dirSink, tr: tr, name: "translate", parent: id, req: iter}
	if tr != nil {
		qsink = timed
	}
	it.queries, err = gen.Emit(querygen.Options{Parallelism: r.nproc}, qsink)
	tr.end(id)
	r.op(err, fmt.Sprintf("iteration %d: workload emission", iter))
	if err != nil {
		return nil, err
	}
	it.queryWall = since(t1)
	it.peakMB = r.mem.peakMB()
	it.relaxed = timed.relaxed

	// Outputs are checked outside the timed region.
	spill, err := graphgen.OpenCSRSpill(csrDir)
	if err != nil {
		return nil, err
	}
	fwd, bwd := 0, 0
	for _, p := range spill.Manifest.Predicates {
		for _, sh := range p.Fwd {
			fwd += sh.Edges
		}
		for _, sh := range p.Bwd {
			bwd += sh.Edges
		}
	}
	r.check(spill.Manifest.Edges == it.edges && fwd == it.edges && bwd == it.edges,
		"iteration %d: reopened spill holds the %d emitted edges (manifest %d, fwd %d, bwd %d)",
		iter, it.edges, spill.Manifest.Edges, fwd, bwd)
	idx, err := graphgen.ReadPartitionIndex(partDir)
	if err != nil {
		return nil, err
	}
	r.check(idx.Edges == it.edges, "iteration %d: partition index holds the %d emitted edges (%d)", iter, it.edges, idx.Edges)
	r.check(it.queries == genQueries && dirSink.Count() == genQueries,
		"iteration %d: %d queries written (%d)", iter, genQueries, dirSink.Count())
	if it.digest, _, err = treeDigest(dir); err != nil {
		return nil, err
	}
	if it.spillBytes, err = dirBytes(csrDir); err != nil {
		return nil, err
	}
	if it.partBytes, err = dirBytes(partDir); err != nil {
		return nil, err
	}
	if it.queryBytes, err = dirBytes(queryDir); err != nil {
		return nil, err
	}
	return it, os.RemoveAll(dir)
}
