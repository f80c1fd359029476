package service

import (
	"bytes"
	"testing"
)

// FuzzCASFrame drives arbitrary bytes through the CAS frame codec. Two
// invariants: unframe never panics and never accepts a blob it cannot
// re-encode to the identical bytes (the framing is canonical — one payload,
// one frame), and frame→unframe is the identity on every payload.
func FuzzCASFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("payload"))
	f.Add(frame([]byte("checkpoint bytes")))
	f.Add(frame(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, err := unframe(data); err == nil {
			if !bytes.Equal(frame(payload), data) {
				t.Fatalf("unframe accepted a non-canonical frame of %d bytes", len(data))
			}
		}
		rt, err := unframe(frame(data))
		if err != nil {
			t.Fatalf("roundtrip rejected: %v", err)
		}
		if !bytes.Equal(rt, data) {
			t.Fatalf("roundtrip changed payload: %d bytes in, %d out", len(data), len(rt))
		}
	})
}
