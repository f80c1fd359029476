package core

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/errest"
	"repro/internal/resub"
	"repro/internal/window"
)

// TestFlowGeneratorSelection pins the default-generator policy: Windowed
// picks the windowed generator on large circuits and falls back to global
// scoring below the size floor.
func TestFlowGeneratorSelection(t *testing.T) {
	opts := DefaultOptions(errest.ER, 0.01)
	if _, ok := must(flowGenerator(&opts, 10_000)).(ResubGenerator); !ok {
		t.Fatal("non-windowed options must pick ResubGenerator")
	}
	opts.Windowed = true
	gen, fellBack := flowGenerator(&opts, 10_000)
	if _, ok := gen.(WindowedGenerator); !ok || fellBack {
		t.Fatalf("windowed options on a large circuit picked %T (fallback %v)", gen, fellBack)
	}
	gen, fellBack = flowGenerator(&opts, windowedFallbackAnds-1)
	if _, ok := gen.(ResubGenerator); !ok || !fellBack {
		t.Fatalf("windowed options on a small circuit picked %T (fallback %v)", gen, fellBack)
	}
}

func must(g IncrementalGenerator, _ bool) IncrementalGenerator { return g }

// TestWindowedSessionMatchesGlobalOnFullWindows runs the full flow twice on
// the same circuit — once with the global generator, once windowed with
// every bound lifted — and requires bitwise-identical outcomes: with
// unbounded windows every window reaches the circuit PIs, so the windowed
// session must reproduce the global one exactly, iteration by iteration.
func TestWindowedSessionMatchesGlobalOnFullWindows(t *testing.T) {
	g := bench.ArrayMult(8)
	opts := DefaultOptions(errest.NMED, 0.002)
	opts.EvalPatterns = 512
	opts.MaxStall = 8
	opts.Workers = 2

	global := Run(g, opts)

	opts.Generator = WindowedGenerator{Win: window.Config{}, Cfg: resub.DefaultConfig()}
	windowed := Run(g, opts)

	if global.FinalError != windowed.FinalError ||
		global.Graph.NumAnds() != windowed.Graph.NumAnds() ||
		global.Iterations != windowed.Iterations ||
		global.Applied != windowed.Applied {
		t.Fatalf("windowed flow diverged from global: err %v vs %v, ands %d vs %d, iters %d vs %d",
			windowed.FinalError, global.FinalError,
			windowed.Graph.NumAnds(), global.Graph.NumAnds(),
			windowed.Iterations, global.Iterations)
	}
	if !reflect.DeepEqual(global.History, windowed.History) {
		t.Fatal("windowed flow history diverged from global")
	}
	if global.Applied == 0 {
		t.Fatal("flow applied nothing — equivalence untested")
	}
}

// TestWindowedRunDeterministicAcrossWorkers pins bitwise determinism of the
// bounded windowed flow (production window config) for every worker count.
func TestWindowedRunDeterministicAcrossWorkers(t *testing.T) {
	g := bench.CLA(32)
	opts := DefaultOptions(errest.ER, 0.05)
	opts.EvalPatterns = 512
	opts.MaxStall = 8
	win := window.DefaultConfig()
	win.MaxPIs, win.MaxNodes = 6, 32
	opts.Generator = WindowedGenerator{Win: win, Cfg: resub.DefaultConfig()}

	var ref Result
	for i, workers := range []int{1, 2, 4} {
		opts.Workers = workers
		res := Run(g, opts)
		if i == 0 {
			ref = res
			if res.Applied == 0 {
				t.Fatal("windowed flow applied nothing — determinism untested")
			}
			continue
		}
		if res.FinalError != ref.FinalError || res.Graph.NumAnds() != ref.Graph.NumAnds() ||
			!reflect.DeepEqual(res.History, ref.History) {
			t.Fatalf("workers=%d: windowed flow diverged from workers=1", workers)
		}
	}
}
