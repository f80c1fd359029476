package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultfs"
)

// CAS is the engine's content-addressed blob store. Entries live under
// <dir>/<key[:2]>/<key>/: checkpoint generations (checkpoint.NNNNNN, newest
// wins, keepGenerations retained) and one result blob. Every blob is framed
// with a magic, a length and a CRC32-IEEE of the payload, written atomically
// (temp + fsync + rename + dirsync via faultfs.WriteAtomic, under the
// transient-errno retrier), and verified on
// every read: a torn or rotted entry is reported to the caller as absent —
// checkpoints fall back generation by generation, results fall back to
// recompute — never as garbage data. Corruption is counted through
// OnCorrupt so the cache-integrity signal reaches /metrics.
//
// Addressing is by JobKey, not job id: duplicate submissions of the same
// normalized work share checkpoints and results, which is what turns a
// resubmitted or reassigned job into a cache hit.
type CAS struct {
	dir   string
	fs    faultfs.FS
	retry *retrier

	// OnCorrupt, when set, is invoked once per corrupt entry detected
	// ("checkpoint" or "result"). Set before first use; not synchronized.
	OnCorrupt func(kind string)

	// mu serializes writers (generation numbering and pruning). Readers
	// deliberately do not take it: atomic rename gives them a complete old
	// or complete new blob, and the CRC catches everything else.
	mu sync.Mutex
}

const (
	casMagic        = "ALSRCAS1"
	keepGenerations = 3
	ckptPrefix      = "checkpoint"
	resultName      = "result"
)

// ErrCASCorrupt is wrapped into errors reported for unreadable frames.
var ErrCASCorrupt = errors.New("service: corrupt CAS entry")

// NewCAS opens (creating if needed) a store rooted at dir.
func NewCAS(dir string, fsys faultfs.FS) (*CAS, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating CAS dir: %w", err)
	}
	return &CAS{dir: dir, fs: fsys, retry: &retrier{sleep: time.Sleep}}, nil
}

func (c *CAS) keyDir(key string) string {
	shard := key
	if len(shard) > 2 {
		shard = key[:2]
	}
	return filepath.Join(c.dir, shard, key)
}

// frame wraps payload as magic || u32 len || payload || u32 crc.
func frame(payload []byte) []byte {
	out := make([]byte, 0, len(casMagic)+8+len(payload))
	out = append(out, casMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return out
}

// unframe verifies and strips the frame. Any mismatch — short blob, wrong
// magic, bad length, CRC failure — is ErrCASCorrupt.
func unframe(blob []byte) ([]byte, error) {
	if len(blob) < len(casMagic)+8 || string(blob[:len(casMagic)]) != casMagic {
		return nil, fmt.Errorf("%w: bad header", ErrCASCorrupt)
	}
	n := binary.LittleEndian.Uint32(blob[len(casMagic):])
	rest := blob[len(casMagic)+4:]
	if uint32(len(rest)) != n+4 {
		return nil, fmt.Errorf("%w: length %d does not match blob", ErrCASCorrupt, n)
	}
	payload := rest[:n]
	want := binary.LittleEndian.Uint32(rest[n:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCASCorrupt)
	}
	return payload, nil
}

func (c *CAS) corrupt(kind string) {
	if c.OnCorrupt != nil {
		c.OnCorrupt(kind)
	}
}

// gens lists a key's checkpoint generation numbers, descending.
func (c *CAS) gens(key string) []int {
	entries, err := c.fs.ReadDir(c.keyDir(key))
	if err != nil {
		return nil
	}
	return genNumbers(entries)
}

func genNumbers(entries []fs.DirEntry) []int {
	var seqs []int
	for _, e := range entries {
		if rest, ok := strings.CutPrefix(e.Name(), ckptPrefix+"."); ok {
			if n, err := strconv.Atoi(rest); err == nil && n > 0 {
				seqs = append(seqs, n)
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	return seqs
}

func genName(n int) string { return fmt.Sprintf("%s.%06d", ckptPrefix, n) }

// PutCheckpoint stores payload as the key's next checkpoint generation and
// prunes generations beyond keepGenerations (pruning failures are ignored:
// an extra old generation is harmless).
func (c *CAS) PutCheckpoint(key string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	dir := c.keyDir(key)
	if err := c.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: creating CAS entry dir: %w", err)
	}
	next := 1
	if g := c.gens(key); len(g) > 0 {
		next = g[0] + 1
	}
	path := filepath.Join(dir, genName(next))
	if err := c.retry.write(c.fs, path, frame(payload)); err != nil {
		return fmt.Errorf("service: writing checkpoint generation %d: %w", next, err)
	}
	if g := c.gens(key); len(g) > keepGenerations {
		for _, n := range g[keepGenerations:] {
			_ = c.fs.Remove(filepath.Join(dir, genName(n)))
		}
	}
	return nil
}

// LatestCheckpoint returns the newest CRC-valid checkpoint payload and its
// generation number, falling back generation by generation past corrupt
// entries. (nil, 0, nil) means no usable checkpoint — indistinguishable, by
// design, from never having checkpointed: the caller rebuilds from the
// circuit and determinism makes the rerun identical.
func (c *CAS) LatestCheckpoint(key string) ([]byte, int, error) {
	dir := c.keyDir(key)
	for _, n := range c.gens(key) {
		blob, err := c.fs.ReadFile(filepath.Join(dir, genName(n)))
		if err != nil {
			continue // racing pruner or unreadable file: try older
		}
		payload, err := unframe(blob)
		if err != nil {
			c.corrupt("checkpoint")
			continue
		}
		return payload, n, nil
	}
	return nil, 0, nil
}

// HasCheckpoint reports whether any checkpoint generation exists on disk
// (without CRC-verifying it — claim responses use this as a hint only; the
// authoritative read happens at restore time).
func (c *CAS) HasCheckpoint(key string) bool {
	return len(c.gens(key)) > 0
}

// PutResult stores the key's result blob.
func (c *CAS) PutResult(key string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	dir := c.keyDir(key)
	if err := c.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: creating CAS entry dir: %w", err)
	}
	if err := c.retry.write(c.fs, filepath.Join(dir, resultName), frame(payload)); err != nil {
		return fmt.Errorf("service: writing result: %w", err)
	}
	return nil
}

// Result returns the key's CRC-valid result payload, or ok=false when the
// entry is absent or corrupt. A corrupt entry is removed (best effort) so
// the recompute's PutResult starts from a clean slot.
func (c *CAS) Result(key string) ([]byte, bool) {
	path := filepath.Join(c.keyDir(key), resultName)
	blob, err := c.fs.ReadFile(path)
	if err != nil {
		return nil, false
	}
	payload, err := unframe(blob)
	if err != nil {
		c.corrupt("result")
		_ = c.fs.Remove(path)
		return nil, false
	}
	return payload, true
}
