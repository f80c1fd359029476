package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading benchmark spec: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// runCompare implements "compare <base> <head>": each argument is a result
// file or a directory of them (saved standard output of runs). It prints,
// per workload and metric, each set's median and quartiles and a verdict,
// and exits 1 when any end-to-end metric regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] <base-results> <head-results>")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	base, err := loadResults(fs.Arg(0))
	if err == nil {
		var head map[string]map[string][]float64
		head, err = loadResults(fs.Arg(1))
		if err == nil {
			if printComparison(stdout, spec, base, head) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, err)
	return 2
}

// loadResults reads result files into workload → metric → values.
func loadResults(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		wl, res, err := readResultFile(f)
		if err != nil {
			return nil, err
		}
		if out[wl] == nil {
			out[wl] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			out[wl][name] = append(out[wl][name], m.Value)
		}
	}
	return out, nil
}

// readResultFile returns the workload named by the header line and the
// result on the last JSON line.
func readResultFile(path string) (string, result, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", result{}, err
	}
	defer f.Close()
	var wl string
	var res result
	found := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var h struct {
			Header *header `json:"header"`
		}
		if json.Unmarshal([]byte(line), &h) == nil && h.Header != nil {
			wl = h.Header.Workload
			continue
		}
		var r result
		if json.Unmarshal([]byte(line), &r) == nil && r.Metrics != nil {
			res, found = r, true
		}
	}
	if err := sc.Err(); err != nil {
		return "", result{}, fmt.Errorf("reading %s: %w", path, err)
	}
	if wl == "" || !found {
		return "", result{}, fmt.Errorf("%s: no header and result lines", path)
	}
	return wl, res, nil
}

// printComparison prints one row per workload and metric present in both
// sets and reports whether any end-to-end metric regressed.
func printComparison(w io.Writer, spec benchSpec, base, head map[string]map[string][]float64) bool {
	defs := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		defs[m.Name] = m
	}
	var workloads []string
	for wl := range base {
		if head[wl] != nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	regressed := false
	fmt.Fprintf(w, "%-14s %-26s %-34s %-34s %8s  %s\n", "workload", "metric", "base median [q1, q3] (n)", "head median [q1, q3] (n)", "change", "verdict")
	for _, wl := range workloads {
		var names []string
		for name := range base[wl] {
			if _, ok := head[wl][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			b, h := base[wl][name], head[wl][name]
			def, ok := defs[name]
			v := "-"
			if ok && def.Bound != nil {
				v = verdict(b, h, def.Better, *def.Bound)
				if v == "regressed" {
					regressed = true
				}
			}
			_, bm, _ := quartiles(b)
			_, hm, _ := quartiles(h)
			change := "-"
			if bm != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(hm-bm)/bm)
			}
			fmt.Fprintf(w, "%-14s %-26s %-34s %-34s %8s  %s\n", wl, name, summary(b), summary(h), change, v)
		}
	}
	return regressed
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", q2, q1, q3, len(xs))
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// verdict judges head against base for a metric that may worsen by at most
// bound (a share of the base median):
//
//   - regressed: the head median is worse than the base median by more than
//     the bound (when either set's spread exceeds the bound, only if every
//     head run is also worse than every base run);
//   - unresolved: a spread wider than the bound hides whether it changed,
//     unless every head run is better than every base run;
//   - ok: otherwise.
func verdict(base, head []float64, better string, bound float64) string {
	if len(base) == 0 || len(head) == 0 {
		return "unresolved"
	}
	sign := 1.0 // lower is better
	if better == "higher" {
		sign = -1
	}
	_, bm, _ := quartiles(base)
	_, hm, _ := quartiles(head)
	worse := 0.0
	if bm != 0 {
		worse = sign * (hm - bm) / math.Abs(bm)
	} else if sign*(hm-bm) > 0 {
		worse = 1
	}
	allHead := func(cmp func(h, b float64) bool) bool {
		for _, h := range head {
			for _, b := range base {
				if !cmp(h, b) {
					return false
				}
			}
		}
		return true
	}
	better1 := func(h, b float64) bool { return sign*(h-b) < 0 }
	worse1 := func(h, b float64) bool { return sign*(h-b) > 0 }
	if spread(base) > bound || spread(head) > bound {
		switch {
		case allHead(better1):
			return "ok"
		case worse > bound && allHead(worse1):
			return "regressed"
		}
		return "unresolved"
	}
	if worse > bound {
		return "regressed"
	}
	return "ok"
}
