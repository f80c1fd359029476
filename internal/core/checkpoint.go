package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/aig"
	"repro/internal/errest"
)

// Checkpoint format (version 3, little-endian):
//
//	magic   "ALSRACKP"            8 bytes
//	version uint32
//	seed    int64                 Options.Seed the session was started with
//	metric  int64                 Options.Metric
//	thresh  float64               Options.Threshold
//	nEval   int64                 evaluation pattern budget (after clamping)
//	maxErr  float64               Options.MaxError (0 = uncertified; v3)
//	depthCap, n, streak, stall, iterations, applied, certRejected  int64
//	curErr  float64
//	sinceOpt int64, careSeed int64, careN int64, careOK uint8
//	         (incremental state: commits since the last optimizer flush,
//	         always 0 in depth-capped sessions, and the care-pattern
//	         identity)
//	done    uint8, reason string  (uint32 length + bytes)
//	history uint32 count, then per record:
//	        iteration, rounds, candidates, ands int64;
//	        applied uint8; rejected uint8 (v3); err float64
//	graphs  orig, cur as length-prefixed raw-codec blocks (aig.AppendRaw);
//	        bestSame uint8 (1 when best == cur), else a third block
//	crc     uint32 IEEE CRC-32 over everything above
//
// Version 3 extends version 2 with certified-mode state: the MaxError
// bound joins the verified header (a resumed run with a different bound
// would silently commit differently, so a mismatch is ErrMismatch), and
// the rejection counter plus per-record rejection flags make a restored
// certified session bitwise identical in its history and events. The
// exact checker itself is derived state — it is rebuilt from the stored
// reference graph and the supplied Options, exactly like the evaluator.
// The fixed offsets of the version-2 header prefix (magic through nEval,
// bytes [0:44)) are unchanged.
//
// The graphs are stored in the raw arena codec (aig.AppendRaw/FromRaw),
// which preserves node ids, dead slots, the free list and per-slot epochs
// exactly. The incremental session mutates its working graph in place —
// freed slots are recycled by later allocations — so a renumbering format
// would make a restored session allocate different ids than the original
// and diverge; the id-preserving codec is what keeps a resumed run bitwise
// identical, which TestSessionSnapshotRestoreDeterministic pins.
//
// What is deliberately NOT serialized: Options fields that are functions
// (Generator, Patterns, Verbose) or pure go-forward knobs (Patience, Scale,
// MaxStall, Workers), and the incremental session's derived state — the
// simulation arenas (a full resimulation of the stored graph on the stored
// care seed is bitwise identical to the incrementally maintained words) and
// the generator's candidate cache (a full rescan reproduces the cached
// merge exactly). Restore takes a fresh Options and verifies the fields
// that would silently corrupt a resumed run if they differed (seed, metric,
// threshold, evaluation budget); supplying the same Generator/Patterns
// configuration is the caller's contract, exactly as it is for Run.

const (
	checkpointMagic   = "ALSRACKP"
	checkpointVersion = 3
)

// Restore failure classes. A structurally damaged checkpoint — torn write,
// bit rot, truncation, a CRC or decode failure — wraps ErrCorrupt: the
// caller may fall back to an older checkpoint generation, which was written
// independently and can still be intact. A checkpoint whose header does not
// match the supplied Options wraps ErrMismatch: every generation of the same
// job shares its configuration, so falling back cannot help and the caller
// should treat the checkpoint set as unusable for these Options.
var (
	ErrCorrupt  = errors.New("corrupt checkpoint")
	ErrMismatch = errors.New("checkpoint does not match options")
)

// Snapshot serializes the complete inter-step state of the session to w as
// one versioned, checksummed checkpoint record. It must not be called
// concurrently with Step.
func (s *Session) Snapshot(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	putU32(&buf, checkpointVersion)
	putI64(&buf, s.opts.Seed)
	putI64(&buf, int64(s.opts.Metric))
	putF64(&buf, s.opts.Threshold)
	putI64(&buf, int64(s.nEval))
	putF64(&buf, s.opts.MaxError)
	putI64(&buf, int64(s.depthCap))
	putI64(&buf, int64(s.n))
	putI64(&buf, int64(s.streak))
	putI64(&buf, int64(s.stall))
	putI64(&buf, int64(s.iterations))
	putI64(&buf, int64(s.applied))
	putI64(&buf, int64(s.certRejected))
	putF64(&buf, s.curErr)
	putI64(&buf, int64(s.sinceOpt))
	putI64(&buf, s.careSeed)
	putI64(&buf, int64(s.careN))
	putBool(&buf, s.careOK)
	putBool(&buf, s.done)
	putString(&buf, s.reason)

	putU32(&buf, uint32(len(s.history)))
	for _, rec := range s.history {
		putI64(&buf, int64(rec.Iteration))
		putI64(&buf, int64(rec.Rounds))
		putI64(&buf, int64(rec.Candidates))
		putI64(&buf, int64(rec.Ands))
		putBool(&buf, rec.Applied)
		putBool(&buf, rec.Rejected)
		putF64(&buf, rec.Err)
	}

	if err := putGraph(&buf, s.orig); err != nil {
		return fmt.Errorf("core: snapshot reference graph: %w", err)
	}
	if err := putGraph(&buf, s.cur); err != nil {
		return fmt.Errorf("core: snapshot working graph: %w", err)
	}
	putBool(&buf, s.best == s.cur)
	if s.best != s.cur {
		if err := putGraph(&buf, s.best); err != nil {
			return fmt.Errorf("core: snapshot best graph: %w", err)
		}
	}

	crc := crc32.ChecksumIEEE(buf.Bytes())
	putU32(&buf, crc)
	_, err := w.Write(buf.Bytes())
	return err
}

// Restore revives a Session from a checkpoint written by Snapshot. opts must
// describe the same run the checkpoint was taken from: seed, metric,
// threshold and evaluation budget are verified against the stored header
// (mismatches are an error), and the caller must supply the same Generator
// and Patterns configuration. The restored session continues bitwise
// identically to the one that was snapshotted.
func Restore(r io.Reader, opts Options) (*Session, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	if len(raw) < len(checkpointMagic)+8 {
		return nil, fmt.Errorf("core: %w: truncated (%d bytes)", ErrCorrupt, len(raw))
	}
	payload, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("core: %w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, got, want)
	}
	d := &ckptReader{buf: payload}
	if magic := string(d.bytes(len(checkpointMagic))); magic != checkpointMagic {
		return nil, fmt.Errorf("core: %w: bad magic %q", ErrCorrupt, magic)
	}
	if v := d.u32(); v != checkpointVersion {
		return nil, fmt.Errorf("core: %w: unsupported version %d (want %d)", ErrCorrupt, v, checkpointVersion)
	}

	seed := d.i64()
	metric := errest.Metric(d.i64())
	threshold := d.f64()
	nEval := int(d.i64())
	maxError := d.f64()
	depthCap := int(d.i64())
	n := int(d.i64())
	streak := int(d.i64())
	stall := int(d.i64())
	iterations := int(d.i64())
	applied := int(d.i64())
	certRejected := int(d.i64())
	curErr := d.f64()
	sinceOpt := int(d.i64())
	careSeed := d.i64()
	careN := int(d.i64())
	careOK := d.bool()
	done := d.bool()
	reason := d.str()

	nHist := int(d.u32())
	if d.err == nil && nHist > len(d.buf)-d.off {
		return nil, fmt.Errorf("core: %w: history count %d exceeds payload", ErrCorrupt, nHist)
	}
	history := make([]IterRecord, 0, nHist)
	for i := 0; i < nHist; i++ {
		rec := IterRecord{
			Iteration:  int(d.i64()),
			Rounds:     int(d.i64()),
			Candidates: int(d.i64()),
			Ands:       int(d.i64()),
		}
		rec.Applied = d.bool()
		rec.Rejected = d.bool()
		rec.Err = d.f64()
		history = append(history, rec)
	}

	orig, err := d.graph()
	if err != nil {
		return nil, fmt.Errorf("core: %w: reference graph: %w", ErrCorrupt, err)
	}
	cur, err := d.graph()
	if err != nil {
		return nil, fmt.Errorf("core: %w: working graph: %w", ErrCorrupt, err)
	}
	best := cur
	if !d.bool() {
		if best, err = d.graph(); err != nil {
			return nil, fmt.Errorf("core: %w: best graph: %w", ErrCorrupt, err)
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: %w: decode: %w", ErrCorrupt, d.err)
	}

	if opts.Seed != seed {
		return nil, fmt.Errorf("core: %w: checkpoint seed %d, Options.Seed %d", ErrMismatch, seed, opts.Seed)
	}
	if opts.Metric != metric {
		return nil, fmt.Errorf("core: %w: checkpoint metric %v, Options.Metric %v", ErrMismatch, metric, opts.Metric)
	}
	if opts.Threshold != threshold {
		return nil, fmt.Errorf("core: %w: checkpoint threshold %v, Options.Threshold %v", ErrMismatch, threshold, opts.Threshold)
	}
	wantEval := opts.EvalPatterns
	if wantEval < 64 {
		wantEval = 64
	}
	if wantEval != nEval {
		return nil, fmt.Errorf("core: %w: checkpoint evaluation budget %d, Options.EvalPatterns %d", ErrMismatch, nEval, wantEval)
	}
	if opts.MaxError != maxError {
		return nil, fmt.Errorf("core: %w: checkpoint max error %v, Options.MaxError %v", ErrMismatch, maxError, opts.MaxError)
	}

	// Rebuild the derived machinery exactly as NewSession does, then
	// overwrite the mutable state with the checkpointed values.
	s := NewSession(orig, opts)
	s.cur, s.best = cur, best
	s.depthCap = depthCap
	s.n, s.streak, s.stall = n, streak, stall
	s.curErr = curErr
	s.sinceOpt = sinceOpt
	s.careSeed, s.careN, s.careOK = careSeed, careN, careOK
	s.iterations, s.applied = iterations, applied
	s.certRejected = certRejected
	s.history = history
	s.done, s.reason = done, reason
	return s, nil
}

// --- little-endian encoding helpers ---------------------------------------

func putU32(b *bytes.Buffer, v uint32) {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	b.Write(w[:])
}

func putI64(b *bytes.Buffer, v int64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(v))
	b.Write(w[:])
}

func putF64(b *bytes.Buffer, v float64) {
	putI64(b, int64(math.Float64bits(v)))
}

func putBool(b *bytes.Buffer, v bool) {
	if v {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
}

func putString(b *bytes.Buffer, s string) {
	putU32(b, uint32(len(s)))
	b.WriteString(s)
}

func putGraph(b *bytes.Buffer, g *aig.Graph) error {
	blk := g.AppendRaw(nil)
	putU32(b, uint32(len(blk)))
	b.Write(blk)
	return nil
}

// ckptReader decodes the checkpoint payload, latching the first error so
// call sites stay linear.
type ckptReader struct {
	buf []byte
	off int
	err error
}

func (d *ckptReader) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("truncated at offset %d (need %d bytes)", d.off, n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *ckptReader) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *ckptReader) i64() int64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (d *ckptReader) f64() float64 { return math.Float64frombits(uint64(d.i64())) }

func (d *ckptReader) bool() bool {
	b := d.bytes(1)
	return b != nil && b[0] != 0
}

func (d *ckptReader) str() string { return string(d.bytes(int(d.u32()))) }

func (d *ckptReader) graph() (*aig.Graph, error) {
	if d.err != nil {
		return nil, d.err
	}
	blk := d.bytes(int(d.u32()))
	if d.err != nil {
		return nil, d.err
	}
	return aig.FromRaw(blk)
}
