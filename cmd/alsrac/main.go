// Command alsrac runs the ALSRAC approximate logic synthesis flow on a
// BLIF netlist or a built-in benchmark and reports area/delay before and
// after, optionally writing the approximate netlist back out.
//
// Examples:
//
//	alsrac -bench rca32 -metric nmed -threshold 0.001
//	alsrac -in adder.blif -metric er -threshold 0.01 -out adder_approx.blif
//	alsrac -bench mtp8 -metric mred -threshold 0.002 -flow sasimi -target lut6
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
)

func main() {
	var (
		inFile     = flag.String("in", "", "input circuit file: .blif, .aag or .aig (alternative to -bench)")
		benchName  = flag.String("bench", "", "built-in benchmark name (see -list)")
		list       = flag.Bool("list", false, "list built-in benchmarks and exit")
		metric     = flag.String("metric", "er", "error metric: er, nmed, mred or maxerr (certified, NMED-guided)")
		threshold  = flag.Float64("threshold", 0.01, "error threshold Et")
		maxError   = flag.Float64("maxerror", 0, "certified mode: exact worst-case normalized error bound enforced on every committed change (0 = off; -metric maxerr defaults it to -threshold)")
		certBudget = flag.Int64("certbudget", 0, "CDCL conflict cap per SAT certification (0 = unbounded)")
		outFile    = flag.String("out", "", "write the approximate circuit (.blif, .aag, .aig or .v)")
		seed       = flag.Int64("seed", 1, "random seed")
		evalPats   = flag.Int("eval", 8192, "Monte-Carlo error evaluation patterns")
		rounds     = flag.Int("n", 32, "initial care-set simulation rounds N")
		lacLimit   = flag.Int("l", 1, "LAC limit per node L")
		patience   = flag.Int("t", 5, "empty iterations before shrinking N (t)")
		scale      = flag.Float64("r", 0.9, "shrink factor for N (r)")
		flow       = flag.String("flow", "alsrac", "flow: alsrac, sasimi or mcmc")
		target     = flag.String("target", "asic", "mapping target: asic or lut6")
		maxDepth   = flag.Float64("maxdepth", 0, "reject changes exceeding this ratio of the original depth (0 = off)")
		workers    = flag.Int("workers", 0, "worker goroutines for simulation, LAC generation and ranking (0 = all CPUs; results are identical for any value)")
		timeout    = flag.Duration("timeout", 0, "stop after this long and keep the best result so far (0 = no limit)")
		verbose    = flag.Bool("v", false, "log flow progress")

		windowed = flag.Bool("window", false, "windowed resubstitution: score LACs on bounded reconvergence-driven windows instead of full TFI cones (scales to very large AIGs)")
	)
	flag.Parse()

	if *list {
		for _, n := range alsrac.Benchmarks() {
			fmt.Println(n)
		}
		return
	}

	g, err := load(*inFile, *benchName)
	if err != nil {
		fail("%v", err)
	}

	m, err := alsrac.ParseMetric(*metric)
	if err != nil {
		fail("%v", err)
	}
	if strings.EqualFold(strings.TrimSpace(*metric), "maxerr") && *maxError == 0 {
		*maxError = *threshold
	}

	g = alsrac.Optimize(g)
	baseArea, baseDelay := measure(g, *target)

	opts := alsrac.DefaultOptions(m, *threshold)
	opts.Seed = *seed
	opts.EvalPatterns = *evalPats
	opts.InitialRounds = *rounds
	opts.MaxLACsPerNode = *lacLimit
	opts.Patience = *patience
	opts.Scale = *scale
	opts.MaxDepthRatio = *maxDepth
	opts.MaxError = *maxError
	opts.CertConflictBudget = *certBudget
	opts.Workers = *workers
	opts.Windowed = *windowed
	if *verbose {
		opts.Verbose = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// A deadline stops the flow at the next iteration boundary with its
	// best-so-far result — a timed-out run still prints and writes a valid
	// approximate circuit rather than failing.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	var res alsrac.Result
	switch strings.ToLower(*flow) {
	case "alsrac":
		res = alsrac.ApproximateCtx(ctx, g, opts)
	case "sasimi":
		res = alsrac.ApproximateSASIMICtx(ctx, g, opts)
	case "mcmc":
		res = alsrac.ApproximateMCMC(g, m, *threshold, 0, *seed)
	default:
		fail("unknown flow %q", *flow)
	}
	elapsed := time.Since(start)
	if *timeout > 0 && ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "alsrac: timeout after %v, reporting best result so far\n", *timeout)
	}

	area, delay := measure(res.Graph, *target)
	fmt.Printf("circuit    : %s (%d PIs, %d POs)\n", g.Name, g.NumPIs(), g.NumPOs())
	fmt.Printf("flow       : %s under %s <= %g\n", *flow, m, *threshold)
	fmt.Printf("AND nodes  : %d -> %d\n", g.NumAnds(), res.Graph.NumAnds())
	fmt.Printf("area       : %.1f -> %.1f (ratio %.2f%%)\n", baseArea, area, 100*area/baseArea)
	fmt.Printf("delay      : %.1f -> %.1f (ratio %.2f%%)\n", baseDelay, delay, 100*delay/baseDelay)
	fmt.Printf("final error: %.6g (%s, %d patterns)\n", res.FinalError, m, *evalPats)
	fmt.Printf("changes    : %d applied in %d iterations, %v\n", res.Applied, res.Iterations, elapsed.Round(time.Millisecond))
	if *maxError > 0 {
		rejected := 0
		for _, rec := range res.History {
			if rec.Rejected {
				rejected++
			}
		}
		fmt.Printf("certified  : worst-case error <= %g proven for every commit, %d candidate(s) rejected\n",
			*maxError, rejected)
	}

	if *outFile != "" {
		if err := alsrac.WriteCircuitFile(*outFile, res.Graph); err != nil {
			fail("writing %s: %v", *outFile, err)
		}
		fmt.Printf("wrote      : %s\n", *outFile)
	}
}

func load(inFile, benchName string) (*alsrac.Circuit, error) {
	switch {
	case inFile != "" && benchName != "":
		return nil, fmt.Errorf("use either -in or -bench, not both")
	case inFile != "":
		return alsrac.ReadCircuitFile(inFile)
	case benchName != "":
		g := alsrac.Benchmark(benchName)
		if g == nil {
			return nil, fmt.Errorf("unknown benchmark %q (try -list)", benchName)
		}
		return g, nil
	}
	return nil, fmt.Errorf("no input: use -in <file.blif> or -bench <name>")
}

func measure(g *alsrac.Circuit, target string) (float64, float64) {
	if strings.EqualFold(target, "lut6") {
		r := alsrac.MapLUT(g, 6)
		return float64(r.LUTs), float64(r.Depth)
	}
	r := alsrac.MapASIC(g)
	return r.Area, r.Delay
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "alsrac: "+format+"\n", args...)
	os.Exit(1)
}
