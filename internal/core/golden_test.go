package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"testing"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/errest"
	"repro/internal/opt"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata instead of checking them")

// goldenCheckpoint holds a certified session after six steps: the 8-bit
// ripple-carry adder, optimized, under NMED 0.01 with MaxError 0.01 and 256
// evaluation patterns.
const goldenCheckpoint = "testdata/session_v3.ckpt"

func goldenCheckpointOpts() Options {
	opts := DefaultOptions(errest.NMED, 0.01)
	opts.MaxError = 0.01
	opts.EvalPatterns = 256
	return opts
}

// TestCheckpointGolden pins the version-3 checkpoint format: the golden file
// must restore under matching Options, and Snapshot of the restored session
// must reproduce it byte for byte. It steps nothing, so it pins the format,
// not the flow. Any format change must bump checkpointVersion and
// regenerate the file with -update.
func TestCheckpointGolden(t *testing.T) {
	opts := goldenCheckpointOpts()
	if *update {
		s := NewSession(opt.Optimize(bench.RCA(8)), opts)
		for i := 0; i < 6 && !s.Done(); i++ {
			if _, err := s.Step(context.Background()); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCheckpoint, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Restore(bytes.NewReader(want), opts)
	if err != nil {
		t.Fatalf("restoring the golden checkpoint: %v", err)
	}
	var got bytes.Buffer
	if err := s.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("snapshot of the restored golden session differs from %s (%d vs %d bytes)",
			goldenCheckpoint, got.Len(), len(want))
	}
}

// flowGolden is what TestFlowGolden pins of one flow: the result graph's
// fingerprint, its final error and the session's counts.
type flowGolden struct {
	fp                                  uint64
	finalError                          float64
	iterations, applied, certRejections int
}

// goldenFlow is one pinned flow: a circuit, its options and a step cap
// (0 runs the flow to completion).
type goldenFlow struct {
	name     string
	g        *aig.Graph
	opts     Options
	maxSteps int
}

// goldenFlows lists the flows TestFlowGolden pins: the determinism cases on
// the 8-bit ripple-carry adder (SASIMI and depth-capped sessions included),
// 16 windowed ER steps on a 13k-AND MAC tree, where ranking walks long
// fanout cones under a finite bound, and 30 certified steps on cla16, which
// certify by SAT.
func goldenFlows() []goldenFlow {
	var flows []goldenFlow
	for _, fc := range determinismCases() {
		opts := fc.options(func(m errest.Metric) Options {
			opts := DefaultOptions(m, 0.01)
			opts.EvalPatterns = 1024
			opts.Seed = 3
			return opts
		})
		flows = append(flows, goldenFlow{fc.name, rippleAdder(8), opts, 0})
	}
	mac := DefaultOptions(errest.ER, 0.05)
	mac.EvalPatterns = 1024
	mac.InitialRounds = 16
	mac.Windowed = true
	mac.Seed = 1
	flows = append(flows, goldenFlow{"mac-windowed", opt.Optimize(bench.MACTree(24, 8, 1)), mac, 16})
	cert := DefaultOptions(errest.NMED, 0.002)
	cert.MaxError = 0.002
	cert.Seed = 1
	return append(flows, goldenFlow{"certified-cla16", opt.Optimize(bench.CLA(16)), cert, 30})
}

// TestFlowGolden pins the outcome of the flows in goldenFlows at 1 and 2
// workers, so that a change meant to keep the flow's output bit-identical
// is checked against recorded values rather than a run of the parent.
func TestFlowGolden(t *testing.T) {
	want := map[string]flowGolden{
		"ER":              {0x61c58def5bc77dd4, 0, 1, 0, 0},
		"NMED":            {0x73167eb6ee3df47f, 0.004406953277886497, 11, 9, 0},
		"depth-capped":    {0xbea7c026240cd95a, 0.0033520364481409003, 11, 7, 0},
		"sasimi":          {0x2dc50db390d4c6f4, 0.009916600415851271, 18, 17, 0},
		"mac-windowed":    {0x5fad47e585965744, 0, 16, 16, 0},
		"certified-cla16": {0xc4ec9c02c486d201, 3.3818443343683956e-05, 30, 30, 0},
	}
	for _, f := range goldenFlows() {
		for _, workers := range []int{1, 2} {
			f.opts.Workers = workers
			s := NewSession(f.g, f.opts)
			for steps := 0; !s.Done() && (f.maxSteps == 0 || steps < f.maxSteps); steps++ {
				if _, err := s.Step(context.Background()); err != nil {
					t.Fatalf("%s workers=%d: step %d: %v", f.name, workers, steps+1, err)
				}
			}
			res := s.Result()
			got := flowGolden{aig.Fingerprint(res.Graph), res.FinalError, res.Iterations, res.Applied, s.CertRejections()}
			if got != want[f.name] {
				t.Errorf("%s workers=%d: got %#v, want %#v", f.name, workers, got, want[f.name])
			}
		}
	}
}
