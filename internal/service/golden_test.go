package service

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata instead of checking them")

const goldenFrame = "testdata/cas_frame.golden"

// goldenFramePayload is the payload framed in goldenFrame.
var goldenFramePayload = []byte("ALSRAC content-addressed store: golden frame payload\n")

// TestCASFrameGolden pins the CAS blob framing (magic, length, payload,
// CRC-32): the golden blob must unframe to its payload, and framing the
// payload must reproduce the file byte for byte. Regenerate with -update
// only on a deliberate format change.
func TestCASFrameGolden(t *testing.T) {
	if *update {
		if err := os.WriteFile(goldenFrame, frame(goldenFramePayload), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(goldenFrame)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := unframe(blob)
	if err != nil {
		t.Fatalf("unframe rejected the golden blob: %v", err)
	}
	if !bytes.Equal(payload, goldenFramePayload) {
		t.Fatalf("unframe returned %q, want %q", payload, goldenFramePayload)
	}
	if !bytes.Equal(frame(goldenFramePayload), blob) {
		t.Fatalf("frame does not reproduce %s", goldenFrame)
	}
}
