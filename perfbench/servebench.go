package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
	"gmark/internal/manifest"
	"gmark/internal/query"
	"gmark/internal/querygen"
	"gmark/internal/schema"
	"gmark/internal/serve"
	"gmark/internal/translate"
	"gmark/internal/usecases"
)

// The serve-slices input: one job over a 1M-node bib instance with
// 16384-node CSR ranges and a 1000-query con workload. The request
// list holds every CSR range of every predicate in both directions
// plus serveWindows sparql windows, each requested serveRepeats times
// in an order shuffled by the seed, by one closed-loop client.
const (
	serveUsecase    = "bib"
	serveNodes      = 1_000_000
	serveShardNodes = 16384
	serveQueries    = 1000
	serveWindows    = 20
	serveWindowSize = 50
	serveRepeats    = 4
)

// slice is one distinct slice of the job: its request path (without
// the job prefix) and the SHA-256 of the batch artifact it must equal.
type slice struct {
	key  string
	path string
	want string
	// Graph slices only: predicate, direction and range.
	pred string
	dir  byte
	rng  int
	// Workload windows only.
	from, to int
}

// serveInput is the job's spec, resolved configuration and slices.
type serveInput struct {
	spec    manifest.JobSpec
	cfg     *schema.GraphConfig
	wcfg    querygen.Config
	nodes   int
	ranges  int
	slices  []slice
	digest  string // over every slice's expected SHA-256
	queries int
}

// serveReference writes the batch artifacts the server's bytes must
// equal — CSRSpillSink shard files and SyntaxDirSink query files for
// the same spec — and returns every slice with its expected digest.
func serveReference(r *run) (*serveInput, error) {
	in := &serveInput{spec: manifest.JobSpec{
		FormatVersion: manifest.JobSpecFormatVersion,
		Usecase:       serveUsecase,
		Nodes:         serveNodes,
		Seed:          r.seed,
		ShardNodes:    serveShardNodes,
		Workload:      manifest.JobWorkloadSpec{Count: serveQueries, Kind: "con"},
	}}
	var err error
	if in.cfg, err = usecases.ByName(serveUsecase, serveNodes); err != nil {
		return nil, err
	}
	if in.wcfg, err = usecases.Workload("con", in.cfg, r.seed); err != nil {
		return nil, err
	}
	in.wcfg.Count = serveQueries

	dir := filepath.Join(r.workDir, "reference")
	csrDir, queryDir := filepath.Join(dir, "csr"), filepath.Join(dir, "queries")
	csr, err := graphgen.NewCSRSpillSink(csrDir, in.cfg, serveShardNodes)
	if err != nil {
		return nil, err
	}
	if _, err := graphgen.Emit(in.cfg, graphgen.Options{Seed: r.seed, Parallelism: r.nproc}, csr); err != nil {
		return nil, fmt.Errorf("reference spill: %w", err)
	}
	spill, err := graphgen.OpenCSRSpill(csrDir)
	if err != nil {
		return nil, err
	}
	in.nodes = spill.Manifest.Nodes
	for _, p := range spill.Manifest.Predicates {
		for _, d := range []struct {
			tag    byte
			shards []graphgen.CSRShard
		}{{'f', p.Fwd}, {'b', p.Bwd}} {
			in.ranges = len(d.shards)
			for rng, sh := range d.shards {
				data, err := os.ReadFile(spill.ShardPath(sh))
				if err != nil {
					return nil, err
				}
				in.slices = append(in.slices, slice{
					key:  fmt.Sprintf("graph/%s/%c/%d", p.Name, d.tag, rng),
					path: fmt.Sprintf("/graph/%s/%d?dir=%c", p.Name, rng, d.tag),
					want: sha256Hex(data), pred: p.Name, dir: d.tag, rng: rng,
				})
			}
		}
	}

	gen, err := querygen.New(in.wcfg)
	if err != nil {
		return nil, err
	}
	qs, err := querygen.NewSyntaxDirSink(queryDir, []translate.Syntax{translate.SPARQL})
	if err != nil {
		return nil, err
	}
	if in.queries, err = gen.Emit(querygen.Options{Parallelism: r.nproc}, qs); err != nil {
		return nil, fmt.Errorf("reference workload: %w", err)
	}
	for w := 0; w < serveWindows; w++ {
		from, to := w*serveWindowSize, (w+1)*serveWindowSize
		var window []byte
		for i := from; i < to; i++ {
			data, err := os.ReadFile(filepath.Join(queryDir, fmt.Sprintf("query-%d.%s", i, translate.SPARQL)))
			if err != nil {
				return nil, err
			}
			window = append(window, data...)
		}
		in.slices = append(in.slices, slice{
			key:  fmt.Sprintf("workload/%d-%d", from, to),
			path: fmt.Sprintf("/workload?from=%d&to=%d&syntax=%s", from, to, translate.SPARQL),
			want: sha256Hex(window), from: from, to: to,
		})
	}
	var lines []string
	for _, s := range in.slices {
		lines = append(lines, s.key+" "+s.want)
	}
	sort.Strings(lines)
	in.digest = sha256Hex([]byte(strings.Join(lines, "\n")))
	return in, os.RemoveAll(dir)
}

// liveServer is one in-process serve.Server on a loopback listener
// with the job registered.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string // http://host:port/v1/jobs/<id>
	wg   sync.WaitGroup
}

// startServer starts a fresh server, registers the job and checks the
// job's manifest against the reference geometry.
func startServer(in *serveInput) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: serve.New(serve.Options{})}
	ls.hs = &http.Server{Handler: ls.srv}
	ls.wg.Add(1)
	go func() {
		defer ls.wg.Done()
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed once stopped
	}()
	if err := ls.register(in, "http://"+ln.Addr().String()); err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// register posts the job spec and reads the job manifest back.
func (ls *liveServer) register(in *serveInput, host string) error {
	body, err := manifest.EncodeJobSpec(&in.spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(host+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var reg struct {
		JobID string `json:"job_id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("registering job: status %d, %v", resp.StatusCode, err)
	}
	ls.base = host + "/v1/jobs/" + reg.JobID
	resp, err = http.Get(ls.base + "/manifest")
	if err != nil {
		return err
	}
	var m serve.JobManifest
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("reading job manifest: %w", err)
	}
	if m.Nodes != in.nodes || m.Ranges != in.ranges || m.Queries != in.queries {
		return fmt.Errorf("job manifest has %d nodes, %d ranges, %d queries; the batch run has %d, %d, %d",
			m.Nodes, m.Ranges, m.Queries, in.nodes, in.ranges, in.queries)
	}
	return nil
}

// stop shuts the server down and waits for its serve loop to return.
func (ls *liveServer) stop() {
	_ = ls.hs.Shutdown(context.Background()) // no deadline: every client has finished
	ls.wg.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// sample is one served request.
type sample struct {
	ms   float64
	hit  bool
	sum  string // SHA-256 of the body
	code int
	err  error
}

// servePass sends every request in order through one closed-loop
// client on one connection, and returns the wall time and the
// per-request samples. A second client would measure the scheduler:
// on a host with a few shared cores its hits queue behind the other
// client's miss, which keeps every core busy, so the hit latency that
// sets the p50 would follow how the two clients' misses overlap.
func servePass(ls *liveServer, in *serveInput, order []int, tr *tracer, pass int) (float64, []sample) {
	samples := make([]sample, len(order))
	transport := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	t0 := now()
	for i, k := range order {
		id := tr.begin("serve.request", 0, pass*len(order)+i)
		samples[i] = fetch(client, ls.base+in.slices[k].path)
		tr.end(id)
	}
	return since(t0), samples
}

// fetch sends one GET and times it until the whole body has arrived.
func fetch(client *http.Client, url string) sample {
	t0 := now()
	resp, err := client.Get(url)
	if err != nil {
		return sample{ms: since(t0) * 1e3, err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := sample{ms: since(t0) * 1e3, code: resp.StatusCode, hit: resp.Header.Get("X-Gmark-Cache") == "hit", err: err}
	s.sum = sha256Hex(body)
	return s
}

// runServe drives the serve-slices workload.
func runServe(r *run) error {
	in, err := serveReference(r)
	if err != nil {
		return err
	}
	ok, err := digestStore(fmt.Sprintf("serve-slices-seed%d", r.seed), in.digest)
	if err != nil {
		return err
	}
	r.check(ok, "batch artifact digest equals the one recorded for seed %d", r.seed)
	var order []int
	for rep := 0; rep < serveRepeats; rep++ {
		for i := range in.slices {
			order = append(order, i)
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	r.prov["input"] = map[string]any{
		"usecase": serveUsecase, "nodes": in.nodes, "shard_nodes": serveShardNodes, "ranges": in.ranges,
		"queries": serveQueries, "workload_kind": "con", "distinct_slices": len(in.slices),
		"windows":           fmt.Sprintf("%d sparql windows of %d queries", serveWindows, serveWindowSize),
		"requests_per_pass": len(order), "clients": 1, "loop": "closed",
	}
	r.prov["artifact_digest"] = in.digest

	// Every pass runs on a fresh server, so each pass starts cold; the
	// server's start and the job's registration are the setup. Extra
	// setups run after the passes until moreSetups is satisfied.
	var setups, rates, latMS, peaks []float64
	var plain *passResult
	t0 := now()
	for pass := 0; pass == 0 || (r.tr == nil && since(t0) < r.seconds); pass++ {
		if plain, err = freshPass(r, in, order, nil, pass); err != nil {
			return err
		}
		setups = append(setups, plain.setup)
		rates = append(rates, float64(len(plain.samples))/plain.wall)
		peaks = append(peaks, plain.peakMB)
		for _, s := range plain.samples {
			latMS = append(latMS, s.ms)
		}
	}
	passes := len(rates)
	for moreSetups(setups) {
		s0 := now()
		ls, err := startServer(in)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, since(s0))
		ls.stop()
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["throughput"] = median(rates)
	r.e2e["latency_p50_ms"] = quantile(latMS, 0.5)
	r.e2e["latency_tail_ms"] = quantile(latMS, 0.99)
	r.e2e["peak_mem_mb"] = median(peaks)
	r.name("slices_per_s", r.e2e["throughput"], "1/s")
	r.name("slice_p50_ms", r.e2e["latency_p50_ms"], "ms")
	r.name("slice_p99_ms", r.e2e["latency_tail_ms"], "ms")
	r.prov["passes"] = passes
	r.prov["latency_samples"] = len(latMS)
	r.prov["latency_tail"] = "p99 over every request of the untraced passes"
	if r.tr == nil {
		return nil
	}

	traced, err := freshPass(r, in, order, r.tr, passes)
	if err != nil {
		return err
	}
	r.check(traced.digest == plain.digest, "traced and untraced served digests agree")
	r.layers["trace.overhead_s"] = traced.wall - plain.wall
	var hitMS []float64
	for _, s := range traced.samples {
		if s.hit {
			hitMS = append(hitMS, s.ms)
		}
	}
	cache := traced.stats.Cache
	r.layers["serve.cache.hit_ratio"] = float64(cache.Hits) / float64(max(cache.Hits+cache.Misses, 1))
	r.layers["serve.cache.misses"] = float64(cache.Misses)
	r.layers["serve.bytes_served"] = float64(traced.stats.BytesServed)
	r.layers["serve.render_ms"] = median(hitMS)
	return replayMisses(r, in)
}

// passResult is one pass on a fresh server.
type passResult struct {
	setup   float64 // seconds to start the server and register the job
	wall    float64 // seconds for the pass
	peakMB  float64 // memory held from the server's start to the pass's end
	samples []sample
	stats   serve.Stats
	digest  string // over the served slices
}

// freshPass starts a server, sends every request of order through it,
// stops it and checks every response.
func freshPass(r *run, in *serveInput, order []int, tr *tracer, pass int) (*passResult, error) {
	r.mem.mark()
	s0 := now()
	ls, err := startServer(in)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res := &passResult{setup: since(s0)}
	res.wall, res.samples = servePass(ls, in, order, tr, pass)
	res.peakMB = r.mem.peakMB()
	res.stats = ls.srv.Stats()
	ls.stop()
	res.digest = r.checkSamples(in, order, res.samples, pass)
	return res, nil
}

// checkSamples verifies every response of a pass against the batch
// artifacts and returns the digest of what was served.
func (r *run) checkSamples(in *serveInput, order []int, samples []sample, pass int) string {
	served := make(map[string]string)
	for i, s := range samples {
		sl := in.slices[order[i]]
		err := s.err
		if err == nil && s.code != http.StatusOK {
			err = fmt.Errorf("status %d", s.code)
		}
		if err == nil && s.sum != sl.want {
			err = fmt.Errorf("body SHA-256 %s, batch artifact %s", s.sum, sl.want)
		}
		r.op(err, fmt.Sprintf("pass %d request %d (%s)", pass, i, sl.key))
		served[sl.key] = s.sum
	}
	var lines []string
	for key, sum := range served {
		lines = append(lines, key+" "+sum)
	}
	sort.Strings(lines)
	return sha256Hex([]byte(strings.Join(lines, "\n")))
}

// edgeCollector gathers one predicate's edges, as the server's own
// collecting sink does.
type edgeCollector struct{ srcs, dsts []graph.NodeID }

func (c *edgeCollector) AddEdge(src graph.NodeID, _ graph.PredID, dst graph.NodeID) error {
	c.srcs = append(c.srcs, src)
	c.dsts = append(c.dsts, dst)
	return nil
}

func (c *edgeCollector) AddEdgeBatch(_ graph.PredID, srcs, dsts []graph.NodeID) error {
	c.srcs = append(c.srcs, srcs...)
	c.dsts = append(c.dsts, dsts...)
	return nil
}

func (c *edgeCollector) Flush() error { return nil }

// windowCollector renders a workload window into the per-query file
// bytes, as the server does for a window miss.
type windowCollector struct{ buf []byte }

func (w *windowCollector) AddQuery(index int, q *query.Query) error {
	content, err := querygen.QueryFileContent(index, q, translate.SPARQL)
	w.buf = append(w.buf, content...)
	return err
}

func (w *windowCollector) Flush() error { return nil }

// replayMisses times, stage by stage, the library calls a slice miss
// makes — EmitPredicate, BuildAdjacency and EncodeCSRShard for a graph
// range (two ranges of every predicate and direction), EmitWindow with
// QueryFileContent for every workload window — and checks each
// replayed slice against its batch artifact.
func replayMisses(r *run, in *serveInput) error {
	opt := graphgen.Options{Seed: r.seed, Parallelism: r.nproc}
	var graphMisses, windowMisses int
	gen, err := querygen.New(in.wcfg)
	if err != nil {
		return err
	}
	for k, sl := range in.slices {
		var img []byte
		if sl.pred == "" {
			col := &windowCollector{}
			id := r.tr.begin("serve.miss.emit_window", 0, k)
			_, err := gen.EmitWindow(querygen.Options{Parallelism: r.nproc}, sl.from, sl.to, col)
			r.tr.end(id)
			if err != nil {
				return err
			}
			img = col.buf
			windowMisses++
		} else {
			if sl.rng != 0 && sl.rng != in.ranges/2 {
				continue
			}
			col := &edgeCollector{}
			id := r.tr.begin("serve.miss.emit_predicate", 0, k)
			_, err := graphgen.EmitPredicate(in.cfg, opt, sl.pred, col)
			r.tr.end(id)
			if err != nil {
				return err
			}
			lo, hi := sl.rng*serveShardNodes, min((sl.rng+1)*serveShardNodes, in.nodes)
			owner, other := col.srcs, col.dsts
			if sl.dir == 'b' {
				owner, other = other, owner
			}
			var from, to []graph.NodeID
			for i, v := range owner {
				if int(v) >= lo && int(v) < hi {
					from = append(from, v-graph.NodeID(lo))
					to = append(to, other[i])
				}
			}
			id = r.tr.begin("serve.miss.build_adjacency", 0, k)
			off, adj := graph.BuildAdjacency(hi-lo, from, to, r.nproc)
			r.tr.end(id)
			id = r.tr.begin("serve.miss.encode", 0, k)
			img, err = graphgen.EncodeCSRShard(off, adj, graphgen.SpillCompressVarint)
			r.tr.end(id)
			if err != nil {
				return err
			}
			graphMisses++
		}
		r.check(sha256Hex(img) == sl.want, "replayed miss %s equals its batch artifact", sl.key)
	}
	dur, _ := spanTotals(r.tr.finish())
	r.layers["serve.miss.emit_predicate_s"] = dur["serve.miss.emit_predicate"] / float64(graphMisses)
	r.layers["serve.miss.build_adjacency_s"] = dur["serve.miss.build_adjacency"] / float64(graphMisses)
	r.layers["serve.miss.encode_s"] = dur["serve.miss.encode"] / float64(graphMisses)
	r.layers["serve.miss.emit_window_s"] = dur["serve.miss.emit_window"] / float64(windowMisses)
	r.prov["replayed_misses"] = map[string]int{"graph": graphMisses, "window": windowMisses}
	return nil
}
