package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"testing"

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
