package core

import (
	"reflect"
	"testing"

	"repro/internal/errest"
)

// TestRunDeterministicAcrossWorkers: the whole flow must be bitwise
// reproducible regardless of the worker count — identical iteration
// history, final AND count and final error — on every determinism case.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, fc := range determinismCases() {
		g := rippleAdder(8)
		opts := fc.options(func(m errest.Metric) Options {
			opts := DefaultOptions(m, 0.01)
			opts.EvalPatterns = 1024
			opts.Seed = 3
			return opts
		})

		opts.Workers = 1
		seq := Run(g, opts)
		for _, workers := range []int{2, 8} {
			opts.Workers = workers
			par := Run(g, opts)
			if seq.FinalError != par.FinalError {
				t.Fatalf("%s workers=%d: FinalError %v vs %v",
					fc.name, workers, seq.FinalError, par.FinalError)
			}
			if a, b := seq.Graph.NumAnds(), par.Graph.NumAnds(); a != b {
				t.Fatalf("%s workers=%d: final AND count %d vs %d", fc.name, workers, a, b)
			}
			if seq.Applied != par.Applied || seq.Iterations != par.Iterations {
				t.Fatalf("%s workers=%d: applied/iterations %d/%d vs %d/%d",
					fc.name, workers, seq.Applied, seq.Iterations, par.Applied, par.Iterations)
			}
			if !reflect.DeepEqual(seq.History, par.History) {
				t.Fatalf("%s workers=%d: iteration history differs:\nseq: %+v\npar: %+v",
					fc.name, workers, seq.History, par.History)
			}
		}
	}
}

// TestRunDeterministicAcrossWorkersGenericGenerator: the generic
// (non-sharded) Generator path must also be unaffected by the Workers knob.
func TestRunDeterministicAcrossWorkersGenericGenerator(t *testing.T) {
	g := rippleAdder(6)
	opts := DefaultOptions(errest.ER, 0.02)
	opts.EvalPatterns = 512
	opts.Generator = constZeroGen{}

	opts.Workers = 1
	seq := Run(g, opts)
	opts.Workers = 8
	par := Run(g, opts)
	if seq.FinalError != par.FinalError || seq.Graph.NumAnds() != par.Graph.NumAnds() ||
		!reflect.DeepEqual(seq.History, par.History) {
		t.Fatalf("generic generator not deterministic across workers")
	}
}
