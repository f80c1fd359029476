package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestCheckFlowFlags(t *testing.T) {
	for _, c := range []struct {
		flow, metric       string
		maxError, maxDepth float64
		set                []string // flags given on the command line
		flag               string   // named in the error; "" for no error
	}{
		{"alsrac", "maxerr", 0.002, 1.2, nil, ""},
		{"sasimi", "nmed", 0.002, 1.2, nil, ""},
		{"mcmc", "er", 0, 0, nil, ""},
		{"mcmc", "nmed", 0.002, 0, nil, "-maxerror"},
		{"MCMC", "nmed", 0.002, 0, nil, "-maxerror"},
		{"mcmc", "maxerr", 0, 0, nil, "-metric maxerr"},
		{"mcmc", " MaxErr ", 0, 0, nil, "-metric maxerr"},
		{"mcmc", "mred", 0, 1.2, nil, "-maxdepth"},
		{"mcmc", "er", 0, 0, []string{"flow", "metric", "threshold", "seed", "target", "bench", "out"}, ""},
		{"alsrac", "er", 0, 0, mcmcIgnored, ""},
		{"sasimi", "er", 0, 0, []string{"eval", "timeout", "workers", "v", "certbudget", "maxerror", "maxdepth", "seed"}, ""},
		{"sasimi", "er", 0, 0, []string{"n"}, "-n"},
		{"SASIMI", "er", 0, 0, []string{"l"}, "-l"},
		{"sasimi", "er", 0, 0, []string{"t"}, "-t"},
		{"sasimi", "er", 0, 0, []string{"r"}, "-r"},
		{"sasimi", "er", 0, 0, []string{"window"}, "-window"},
		{"mcmc", "er", 0, 0, []string{"eval"}, "-eval"},
		{"mcmc", "er", 0, 0, []string{"timeout"}, "-timeout"},
		{"mcmc", "er", 0, 0, []string{"workers"}, "-workers"},
		{"mcmc", "er", 0, 0, []string{"window"}, "-window"},
		{"mcmc", "er", 0, 0, []string{"n"}, "-n"},
		{"mcmc", "er", 0, 0, []string{"l"}, "-l"},
		{"mcmc", "er", 0, 0, []string{"t"}, "-t"},
		{"mcmc", "er", 0, 0, []string{"r"}, "-r"},
		{"mcmc", "er", 0, 0, []string{"v"}, "-v"},
		{"mcmc", "er", 0, 0, []string{"certbudget"}, "-certbudget"},
	} {
		set := map[string]bool{}
		for _, name := range c.set {
			set[name] = true
		}
		err := checkFlowFlags(c.flow, c.metric, c.maxError, c.maxDepth, set)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c, err)
		case c.flag != "" && (err == nil || !strings.Contains(err.Error(), c.flag+" is not supported")):
			t.Errorf("%+v: error %v, want one naming %s", c, err, c.flag)
		}
	}
}

// TestRunRefusesFlagsBeforeTheFlow runs the command on arguments it must
// refuse and requires exit status 1, the reason on stderr and nothing on
// stdout: no circuit was loaded and no flow ran, so the refusal costs
// nothing however long the flow would have taken.
func TestRunRefusesFlagsBeforeTheFlow(t *testing.T) {
	notes := filepath.Join(t.TempDir(), "notes.txt")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "mtp8", "-metric", "nmed", "-threshold", "0.001", "-out", notes},
			`unknown circuit format ".txt"`},
		{[]string{"-bench", "mtp8", "-flow", "mcmc", "-eval", "1024", "-timeout", "1ms"},
			"-eval is not supported by -flow mcmc"},
		{[]string{"-bench", "mtp8", "-flow", "mcmc", "-workers", "1"},
			"-workers is not supported by -flow mcmc"},
		{[]string{"-bench", "rca32", "-metric", "nmed", "-threshold", "0.002", "-flow", "sasimi", "-n", "8"},
			"-n is not supported by -flow sasimi"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-n", "0"}, "-n must be at least 1, got 0"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-n", "-5"}, "-n must be at least 1, got -5"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-l", "0"}, "-l must be at least 1, got 0"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-t", "0"}, "-t must be at least 1, got 0"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-r", "0"}, "-r must be in (0, 1], got 0"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-r", "1.5"}, "-r must be in (0, 1], got 1.5"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-eval", "0"}, "-eval must be at least 64, got 0"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-eval", "-10"}, "-eval must be at least 64, got -10"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-eval", "63"}, "-eval must be at least 64, got 63"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "-1"}, "-threshold must be non-negative, got -1"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "NaN"}, "-threshold must be non-negative, got NaN"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-maxerror", "-0.1"}, "-maxerror must be non-negative, got -0.1"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-maxdepth", "-1"}, "-maxdepth must be non-negative, got -1"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-certbudget", "-1"}, "-certbudget must be non-negative, got -1"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "Inf"}, "-threshold must be finite, got +Inf"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-maxerror", "Inf"}, "-maxerror must be finite, got +Inf"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-maxdepth", "Inf"}, "-maxdepth must be finite, got +Inf"},
		{[]string{"-bench", "cla32", "-metric", "nmed", "-threshold", "0.001", "-maxdepth", "NaN"}, "-maxdepth must be non-negative, got NaN"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit status %d, want 1", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q, want it to contain %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: the flow ran and reported %q", c.args, stdout.String())
		}
	}
	if _, err := os.Stat(notes); !os.IsNotExist(err) {
		t.Errorf("%s: stat error %v, want the file never created", notes, err)
	}
}

// TestRunReportsMCMCPatterns runs -flow mcmc end to end and requires the
// report to state the pattern count the baseline evaluated on.
func TestRunReportsMCMCPatterns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "alu4", "-flow", "mcmc", "-threshold", "0.05"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	if want := fmt.Sprintf("(ER, %d patterns)", alsrac.MCMCEvalPatterns); !strings.Contains(stdout.String(), want) {
		t.Fatalf("report %q, want the final error line to end in %q", stdout.String(), want)
	}
}

// wideBLIF returns a two-input BLIF circuit with n outputs, alternating the
// AND and the OR of the inputs.
func wideBLIF(n int) string {
	var b strings.Builder
	b.WriteString(".model wide\n.inputs a b\n.outputs")
	for o := 0; o < n; o++ {
		fmt.Fprintf(&b, " o%d", o)
	}
	b.WriteString("\n")
	for o := 0; o < n; o++ {
		if o%2 == 0 {
			fmt.Fprintf(&b, ".names a b o%d\n11 1\n", o)
		} else {
			fmt.Fprintf(&b, ".names a b o%d\n1- 1\n-1 1\n", o)
		}
	}
	b.WriteString(".end\n")
	return b.String()
}

// TestRunRefusesOutputsItCannotScore requires every flow to refuse, with
// exit status 1, the reason on stderr and nothing on stdout, a circuit of
// more than 64 outputs under a value metric or in certified mode, and a
// circuit without outputs in certified mode. ER runs on the wide circuit.
func TestRunRefusesOutputsItCannotScore(t *testing.T) {
	dir := t.TempDir()
	wide := filepath.Join(dir, "wide.blif")
	none := filepath.Join(dir, "none.aag")
	if err := os.WriteFile(wide, []byte(wideBLIF(65)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(none, []byte("aag 2 2 0 0 0\n2\n4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-in", wide, "-metric", "nmed"}, "65 outputs; NMED supports at most 64"},
		{[]string{"-in", wide, "-metric", "mred", "-flow", "sasimi"}, "65 outputs; MRED supports at most 64"},
		{[]string{"-in", wide, "-metric", "nmed", "-flow", "mcmc"}, "65 outputs; NMED supports at most 64"},
		{[]string{"-in", wide, "-metric", "maxerr"}, "65 outputs; NMED supports at most 64"},
		{[]string{"-in", wide, "-metric", "er", "-maxerror", "0.01"}, "65 outputs; certified mode supports at most 64"},
		{[]string{"-in", none, "-metric", "er", "-maxerror", "0.01"}, "0 outputs; certified mode needs at least one"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit status %d, want 1", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q, want it to contain %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: the flow ran and reported %q", c.args, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-in", wide, "-metric", "er", "-workers", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("ER on 65 outputs: exit status %d, stderr %q", code, stderr.String())
	}
}
