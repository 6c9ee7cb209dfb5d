// Command gmark-bench regenerates the paper's tables and figures (see
// README.md for what each experiment records, and BENCH_generate.json
// and BENCH_querygen.json for recorded results).
//
// Usage:
//
//	gmark-bench -exp table2            # one experiment
//	gmark-bench -exp all -full         # everything at paper scale
//
// Experiments: table1, table2, table3, table4, fig10, fig11, fig12,
// qgen-scal, gen-scal, gen-shard, query-scal, spill-eval, spill-engines,
// spill-size, par-eval, cold-eval, all.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"gmark/internal/eval"
	"gmark/internal/experiments"
	"gmark/internal/graphgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gmark-bench: ")

	var (
		exp      = flag.String("exp", "all", "experiment id (table1..4, fig10..12, qgen-scal, gen-scal, gen-shard, query-scal, spill-eval, spill-engines, spill-size, par-eval, cold-eval, all)")
		full     = flag.Bool("full", false, "paper-scale sweeps (slower)")
		seed     = flag.Int64("seed", 1, "random seed")
		sizes    = flag.String("sizes", "", "comma-separated graph sizes override")
		perClass = flag.Int("queries-per-class", 0, "queries per selectivity class (0 = default)")
		budget   = flag.Duration("timeout", 60*time.Second, "per-query evaluation timeout")
		maxPairs = flag.Int64("max-pairs", 50_000_000, "per-query materialization budget")
		runs     = flag.Int("runs", 1, "engine runs per measurement; >= 3 enables the paper's cold+warm protocol (Section 7.1)")
		par      = flag.Int("parallelism", 0, "graph-generation workers (0 = all cores)")
		evalWork = flag.Int("eval-workers", 0, "evaluation workers for par-eval (0 = all cores)")
		spillCmp = flag.String("spill-compress", "", "shard encoding for spill-writing experiments (none, raw, varint, deflate; empty = default varint; cold-eval sweeps encodings itself)")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()

	// The same parse/validate path cmd/gmark uses, so an invalid or
	// reserved encoding (zstd) fails here with the same error text
	// instead of deep inside an experiment.
	if *spillCmp != "" {
		if _, err := graphgen.ParseSpillCompression(*spillCmp); err != nil {
			log.Fatal(err)
		}
	}

	opt := experiments.Options{
		Seed:            *seed,
		Full:            *full,
		QueriesPerClass: *perClass,
		Budget:          eval.Budget{MaxPairs: *maxPairs, Timeout: *budget},
		Runs:            *runs,
		Parallelism:     *par,
		EvalWorkers:     *evalWork,
		SpillCompress:   *spillCmp,
	}
	if !*quiet {
		opt.Progress = os.Stderr
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				log.Fatalf("bad size %q", s)
			}
			opt.Sizes = append(opt.Sizes, n)
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table1", "table2", "table3", "table4", "fig10", "fig11", "fig12", "qgen-scal", "gen-scal", "gen-shard", "query-scal", "spill-eval", "spill-engines", "spill-size", "par-eval", "cold-eval", "coverage"}
	}
	for _, id := range ids {
		fmt.Printf("\n================ %s ================\n", id)
		start := time.Now()
		if err := run(id, opt); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Printf("[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func run(id string, opt experiments.Options) error {
	switch id {
	case "table1":
		rows, err := experiments.Table1(opt)
		if err != nil {
			return err
		}
		experiments.RenderTable1(os.Stdout, rows)
	case "table2":
		rows, err := experiments.Table2(opt)
		if err != nil {
			return err
		}
		experiments.RenderTable2(os.Stdout, rows)
	case "table3":
		rows, err := experiments.Table3(opt)
		if err != nil {
			return err
		}
		experiments.RenderTable3(os.Stdout, rows)
	case "table4":
		rows, err := experiments.Table4(opt)
		if err != nil {
			return err
		}
		experiments.RenderTable4(os.Stdout, rows)
	case "fig10":
		series, err := experiments.Fig10(opt)
		if err != nil {
			return err
		}
		experiments.RenderFig10(os.Stdout, series)
	case "fig11":
		series, err := experiments.Fig11(opt)
		if err != nil {
			return err
		}
		experiments.RenderFig11(os.Stdout, series)
	case "fig12":
		results, err := experiments.Fig12(opt)
		if err != nil {
			return err
		}
		experiments.RenderFig12(os.Stdout, results)
	case "qgen-scal":
		rows, err := experiments.QGenScalability(opt)
		if err != nil {
			return err
		}
		experiments.RenderScalability(os.Stdout, rows)
	case "gen-scal":
		rows, err := experiments.GraphGenScalability(opt)
		if err != nil {
			return err
		}
		experiments.RenderGenScalability(os.Stdout, rows)
	case "gen-shard":
		rows, err := experiments.GenShardScalability(opt)
		if err != nil {
			return err
		}
		experiments.RenderGenShardScalability(os.Stdout, rows)
	case "query-scal":
		rows, err := experiments.WorkloadScalability(opt)
		if err != nil {
			return err
		}
		experiments.RenderWorkloadScalability(os.Stdout, rows)
	case "spill-eval":
		rows, err := experiments.SpillEval(opt)
		if err != nil {
			return err
		}
		experiments.RenderSpillEval(os.Stdout, rows)
	case "par-eval":
		rows, err := experiments.ParEval(opt)
		if err != nil {
			return err
		}
		experiments.RenderParEval(os.Stdout, rows)
	case "spill-engines":
		rows, err := experiments.SpillEngines(opt)
		if err != nil {
			return err
		}
		experiments.RenderSpillEngines(os.Stdout, rows)
	case "cold-eval":
		rows, err := experiments.ColdEval(opt)
		if err != nil {
			return err
		}
		experiments.RenderColdEval(os.Stdout, rows)
	case "spill-size":
		rows, err := experiments.SpillSize(opt)
		if err != nil {
			return err
		}
		experiments.RenderSpillSize(os.Stdout, rows)
	case "coverage":
		rows, err := experiments.Coverage(opt)
		if err != nil {
			return err
		}
		experiments.RenderCoverage(os.Stdout, rows)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
