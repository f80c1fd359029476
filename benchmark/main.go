// Command benchmark is the repository benchmark: it runs one workload of the
// ALSRAC system in this process, checks the outputs, and prints every metric
// by name with its unit.
//
//	bash benchmark/run.sh --workload arith-global --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh compare <base-results-dir> <head-results-dir>
//
// Standard output carries two JSON lines: a header (workload, seed, host and
// build) and, last, the result {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, measured untraced; with
// --trace 1 they are the per-layer set from a traced run, whose spans are
// also written as a Chrome trace-event file. A readable table goes to
// standard error. The exit code is 1 when any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// A run builds its inputs (and servers) at least setupMin times, and
// more, up to setupMax, until the set-ups have taken setupSeconds in all;
// setup_s is the median, so one slow start-up does not move it. A set-up
// of a few milliseconds varies by half from one repeat to the next (with
// the collections that land in it), so it is timed over many repeats.
const (
	setupMin     = 3
	setupMax     = 100
	setupSeconds = 2.0
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header stamps every result with what produced it.
type header struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	CPU         string  `json:"cpu"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	VCSRevision string  `json:"vcs_revision"`
	VCSModified string  `json:"vcs_modified"`
}

// runner is one set-up workload instance.
type runner interface {
	// measure runs passes for about seconds, and at least its minimum
	// number of passes. tr is nil for an untraced run.
	measure(seconds time.Duration, tr *tracer) (outcome, error)
}

// beforeDeadline reports whether another pass, as long as the median of
// the passes so far (in seconds), would end no more than half a pass after
// start+seconds: the timed section then ends within half a pass of its
// deadline instead of up to a whole pass after it.
func beforeDeadline(start time.Time, seconds time.Duration, passes []float64) bool {
	half := time.Duration(median(passes) / 2 * float64(time.Second))
	return time.Since(start)+half < seconds
}

// outcome is what a timed section produced: checked operations and metrics.
type outcome struct {
	attempted int
	failures  []string
	metrics   map[string]float64
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string
	workDir  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		cfg      config
		seconds  = flag.Float64("seconds", 20, "length of the timed section in seconds")
		traceOn  = flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
		names    []string
		workload = flag.String("workload", "", "workload to run")
	)
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "trace-event file of a traced run (default .bench_build/trace/<workload>-seed<n>.json)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload {%s} [--seed n] [--seconds s] [--trace 0|1]\n       benchmark compare <base-dir> <head-dir>\n", strings.Join(names, ","))
		flag.PrintDefaults()
	}
	flag.Parse()
	cfg.workload = *workload
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *traceOn == 1
	if *traceOn != 0 && *traceOn != 1 {
		fail("--trace must be 0 or 1")
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	cfg.workDir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))

	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		flag.Usage()
		os.Exit(2)
	}
	hdr := newHeader(cfg)
	res, err := run(cfg, w, hdr, os.Stderr)
	if err != nil {
		fail("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]header{"header": hdr}); err != nil {
		fail("writing header: %v", err)
	}
	if err := enc.Encode(res); err != nil {
		fail("writing result: %v", err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// run sets the workload up repeatedly, measures the last instance, and
// assembles the result. Check failures and the table go to log.
func run(cfg config, w workload, hdr header, log io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, fmt.Errorf("creating work directory: %w", err)
	}
	defer os.RemoveAll(cfg.workDir)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var out outcome
	var setups []float64
	var setupTotal float64
	for last := false; !last; {
		n := len(setups)
		last = n+1 >= setupMax || (n+1 >= setupMin && setupTotal+median(setups) >= setupSeconds)
		t0 := time.Now()
		err := w.open(cfg.seed, filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", n)), func(r runner) error {
			setups = append(setups, time.Since(t0).Seconds())
			setupTotal += setups[n]
			if !last {
				return nil
			}
			var err error
			out, err = r.measure(cfg.seconds, tr)
			return err
		})
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	for _, f := range out.failures {
		fmt.Fprintf(log, "CHECK FAILED: %s\n", f)
	}

	res := result{Attempted: out.attempted, Failed: len(out.failures), Metrics: map[string]metric{}}
	if cfg.trace {
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{out.metrics[m.name], m.unit}
		}
		if err := tr.write(cfg.traceOut, hdr); err != nil {
			return result{}, err
		}
		fmt.Fprintf(log, "trace written to %s\n", cfg.traceOut)
	} else {
		out.metrics["setup_s"] = median(setups)
		for _, m := range endToEndMetrics {
			v := out.metrics[m.name]
			if v <= 0 {
				res.Failed++
				fmt.Fprintf(log, "CHECK FAILED: end-to-end metric %s is %v, expected a positive value\n", m.name, v)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Failed++
			fmt.Fprintf(log, "CHECK FAILED: metric %s is not finite\n", name)
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed++
		fmt.Fprintln(log, "CHECK FAILED: no operation completed")
	}
	res.Correct = res.Failed == 0
	printTable(log, cfg, res)
	return res, nil
}

func printTable(log io.Writer, cfg config, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "%s seed %d: %d operations, %d failed\n", cfg.workload, cfg.seed, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(log, "  %-26s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func newHeader(cfg config) header {
	h := header{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		VCSRevision: "unknown", VCSModified: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value
			}
		}
	}
	return h
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

// residentMB collects garbage, returns freed pages to the OS, and reports
// the resident set size then, in MiB: the memory the process still holds —
// retained state, caches and buffer pools. Neither the resident high-water
// mark nor the live heap repeats from run to run here: they move with when
// the allocator returns pages and with which collection catches the most
// work in flight.
func residentMB() float64 {
	debug.FreeOSMemory()
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats // no /proc: fall back to what the Go runtime holds
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse+ms.StackInuse) / (1 << 20)
}
