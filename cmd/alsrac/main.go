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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, runs the flow and reports, and
// returns the exit status — 2 for a flag error, 1 for any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("alsrac", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		inFile     = fs.String("in", "", "input circuit file: .blif, .aag or .aig (alternative to -bench)")
		benchName  = fs.String("bench", "", "built-in benchmark name (see -list)")
		list       = fs.Bool("list", false, "list built-in benchmarks and exit")
		metric     = fs.String("metric", "er", "error metric: er, nmed, mred or maxerr (certified, NMED-guided)")
		threshold  = fs.Float64("threshold", 0.01, "error threshold Et")
		maxError   = fs.Float64("maxerror", 0, "certified mode: exact worst-case normalized error bound enforced on every committed change (0 = off; -metric maxerr defaults it to -threshold)")
		certBudget = fs.Int64("certbudget", 0, "CDCL conflict cap per SAT certification (0 = unbounded)")
		outFile    = fs.String("out", "", "write the approximate circuit (.blif, .aag, .aig or .v)")
		seed       = fs.Int64("seed", 1, "random seed")
		evalPats   = fs.Int("eval", 8192, "Monte-Carlo error evaluation patterns")
		rounds     = fs.Int("n", 32, "initial care-set simulation rounds N")
		lacLimit   = fs.Int("l", 1, "LAC limit per node L")
		patience   = fs.Int("t", 5, "empty iterations before shrinking N (t)")
		scale      = fs.Float64("r", 0.9, "shrink factor for N (r)")
		flow       = fs.String("flow", "alsrac", "flow: alsrac, sasimi or mcmc")
		target     = fs.String("target", "asic", "mapping target: asic or lut6")
		maxDepth   = fs.Float64("maxdepth", 0, "reject changes exceeding this ratio of the original depth (0 = off)")
		workers    = fs.Int("workers", 0, "worker goroutines for simulation, LAC generation and ranking (0 = all CPUs; results are identical for any value)")
		timeout    = fs.Duration("timeout", 0, "stop after this long and keep the best result so far (0 = no limit)")
		verbose    = fs.Bool("v", false, "log flow progress")

		windowed = fs.Bool("window", false, "windowed resubstitution: score LACs on bounded reconvergence-driven windows instead of full TFI cones (scales to very large AIGs)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "alsrac: "+format+"\n", a...)
		return 1
	}

	if *list {
		for _, n := range alsrac.Benchmarks() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	// Refuse the values no flow can run with, which the daemon's
	// JobSpec.Normalize refuses or replaces. The session evaluates at least
	// 64 patterns whatever -eval says. Each ok is written so NaN fails it.
	for _, c := range []struct {
		name, want string
		ok         bool
	}{
		{"n", "at least 1", *rounds >= 1},
		{"l", "at least 1", *lacLimit >= 1},
		{"t", "at least 1", *patience >= 1},
		{"r", "in (0, 1]", *scale > 0 && *scale <= 1},
		{"eval", "at least 64", *evalPats >= 64},
		{"threshold", "non-negative", *threshold >= 0},
		{"maxerror", "non-negative", *maxError >= 0},
		{"maxdepth", "non-negative", *maxDepth >= 0},
		{"certbudget", "non-negative", *certBudget >= 0},
	} {
		if !c.ok {
			return fail("-%s must be %s, got %s", c.name, c.want, fs.Lookup(c.name).Value)
		}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlowFlags(*flow, *metric, *maxError, *maxDepth, set); err != nil {
		return fail("%v", err)
	}
	if *outFile != "" {
		if err := alsrac.CheckCircuitPath(*outFile); err != nil {
			return fail("-out %s: %v", *outFile, err)
		}
	}

	g, err := load(*inFile, *benchName)
	if err != nil {
		return fail("%v", err)
	}

	m, err := alsrac.ParseMetric(*metric)
	if err != nil {
		return fail("%v", err)
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
			fmt.Fprintf(stderr, format+"\n", args...)
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
	patterns := *evalPats
	switch strings.ToLower(*flow) {
	case "alsrac":
		res = alsrac.ApproximateCtx(ctx, g, opts)
	case "sasimi":
		res = alsrac.ApproximateSASIMICtx(ctx, g, opts)
	case "mcmc":
		res = alsrac.ApproximateMCMC(g, m, *threshold, 0, *seed)
		patterns = alsrac.MCMCEvalPatterns
	default:
		return fail("unknown flow %q", *flow)
	}
	elapsed := time.Since(start)
	if *timeout > 0 && ctx.Err() != nil {
		fmt.Fprintf(stderr, "alsrac: timeout after %v, reporting best result so far\n", *timeout)
	}

	area, delay := measure(res.Graph, *target)
	fmt.Fprintf(stdout, "circuit    : %s (%d PIs, %d POs)\n", g.Name, g.NumPIs(), g.NumPOs())
	fmt.Fprintf(stdout, "flow       : %s under %s <= %g\n", *flow, m, *threshold)
	fmt.Fprintf(stdout, "AND nodes  : %d -> %d\n", g.NumAnds(), res.Graph.NumAnds())
	fmt.Fprintf(stdout, "area       : %.1f -> %.1f (ratio %.2f%%)\n", baseArea, area, 100*area/baseArea)
	fmt.Fprintf(stdout, "delay      : %.1f -> %.1f (ratio %.2f%%)\n", baseDelay, delay, 100*delay/baseDelay)
	fmt.Fprintf(stdout, "final error: %.6g (%s, %d patterns)\n", res.FinalError, m, patterns)
	fmt.Fprintf(stdout, "changes    : %d applied in %d iterations, %v\n", res.Applied, res.Iterations, elapsed.Round(time.Millisecond))
	if *maxError > 0 {
		rejected := 0
		for _, rec := range res.History {
			if rec.Rejected {
				rejected++
			}
		}
		fmt.Fprintf(stdout, "certified  : worst-case error <= %g proven for every commit, %d candidate(s) rejected\n",
			*maxError, rejected)
	}

	if *outFile != "" {
		if err := alsrac.WriteCircuitFile(*outFile, res.Graph); err != nil {
			return fail("writing %s: %v", *outFile, err)
		}
		fmt.Fprintf(stdout, "wrote      : %s\n", *outFile)
	}
	return 0
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

// mcmcIgnored lists the flags the MCMC baseline has no use for: it runs a
// fixed pattern count (alsrac.MCMCEvalPatterns) to its last proposal, with
// no care set, windows, worker setting, log or SAT budget.
var mcmcIgnored = []string{"eval", "timeout", "workers", "window", "n", "l", "t", "r", "v", "certbudget"}

// sasimiIgnored lists the flags Su's baseline overrides: it pins N at 512
// patterns and r at 1, so -n and -r are dropped and the shrink -t times
// changes nothing, and its own generator bypasses -l and -window.
var sasimiIgnored = []string{"n", "l", "t", "r", "window"}

// checkFlowFlags rejects the flags a flow would ignore. Of the flags in set
// (those given on the command line), -flow sasimi refuses each of
// sasimiIgnored and -flow mcmc each of mcmcIgnored, whose value the flow
// would silently drop. The MCMC baseline also has no certified mode and no
// depth cap, so running it with them would report a guarantee it never
// enforced.
func checkFlowFlags(flow, metric string, maxError, maxDepth float64, set map[string]bool) error {
	flow = strings.ToLower(flow) // as run dispatches it
	var ignored []string
	switch flow {
	case "sasimi":
		ignored = sasimiIgnored
	case "mcmc":
		switch {
		case maxError != 0:
			return errors.New("-maxerror is not supported by -flow mcmc")
		case strings.EqualFold(strings.TrimSpace(metric), "maxerr"):
			return errors.New("-metric maxerr is not supported by -flow mcmc")
		case maxDepth != 0:
			return errors.New("-maxdepth is not supported by -flow mcmc")
		}
		ignored = mcmcIgnored
	}
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s is not supported by -flow %s", name, flow)
		}
	}
	return nil
}
