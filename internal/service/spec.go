// Package service is alsracd's job engine: one job table, one store — a
// content-addressed store (CAS) for checkpoints and results plus each job's
// own spec, circuit and state files — and one worker loop, run by the
// engine's in-process workers and, over internal/cluster's HTTP wire, by
// remote ones. Jobs survive process death: a new Manager requeues whatever
// was unfinished, and a restored session continues bitwise identically to
// the run that was killed (the core checkpoint contract), so a repeated
// submission is answered from the CAS.
//
// The package obeys the same alsraclint determinism discipline as the
// synthesis core: no wall-clock reads (the Manager's clock is injected via
// Config.Now), no unseeded randomness (job ids are sequential), and no
// ordered results derived from map iteration (the job table keeps an
// insertion-ordered slice beside its lookup map).
package service

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/errest"
)

// JobSpec is the serializable description of one synthesis job: everything
// needed to rebuild identical core.Options after a restart. The circuit
// body is stored separately (it can be large).
type JobSpec struct {
	Metric    string  `json:"metric"`    // "er", "nmed", "mred" or "maxerr"
	Threshold float64 `json:"threshold"` // error threshold Et

	// MaxError > 0 makes the job certified: every winning LAC is proven by
	// the exact checker (internal/exact) to keep the worst-case normalized
	// error within this bound before it is committed. Metric "maxerr" is
	// the dedicated certified job type — it guides the search with NMED and
	// defaults MaxError to Threshold.
	MaxError float64 `json:"max_error,omitempty"`
	// CertConflictBudget caps the CDCL conflicts of one SAT certification
	// (0 = unbounded); an exhausted budget rejects the candidate.
	CertConflictBudget int64 `json:"cert_conflict_budget,omitempty"`

	Seed           int64   `json:"seed"`
	EvalPatterns   int     `json:"eval_patterns"`
	InitialRounds  int     `json:"initial_rounds"`
	MaxLACsPerNode int     `json:"max_lacs_per_node"`
	Patience       int     `json:"patience"`
	Scale          float64 `json:"scale"`
	MaxStall       int     `json:"max_stall"`
	MaxDepthRatio  float64 `json:"max_depth_ratio"`
	Workers        int     `json:"workers"` // per-session worker goroutines (0 = all CPUs)

	// Windowed selects reconvergence-driven windowed candidate generation
	// under the constant window.DefaultConfig bounds.
	Windowed bool `json:"windowed,omitempty"`

	// Format of the submitted circuit: "blif", "aag", "aig" or "auto"
	// (sniffed from the payload).
	Format string `json:"format"`

	// TimeoutSec bounds one running attempt of the job; on expiry the job
	// completes with its best-so-far result (TimedOut is set on the status).
	// 0 means no deadline.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// Normalize fills unset fields with the paper's default parameters so the
// persisted spec is self-contained: a resumed job must rebuild the exact
// same core.Options even if the daemon's defaults change between versions.
func (s *JobSpec) Normalize() error {
	// Canonicalize the metric first so the persisted form is deterministic:
	// an absent field means the default metric (v2-era specs and clients that
	// never send one), surrounding whitespace and case are stripped, and an
	// unknown name fails here with a stable message rather than differently
	// at each consumer.
	s.Metric = strings.ToLower(strings.TrimSpace(s.Metric))
	if s.Metric == "" {
		s.Metric = "er"
	}
	if _, err := core.ParseMetric(s.Metric); err != nil {
		return err
	}
	if s.Threshold < 0 {
		return fmt.Errorf("threshold must be non-negative, got %v", s.Threshold)
	}
	if s.MaxError < 0 {
		return fmt.Errorf("max_error must be non-negative, got %v", s.MaxError)
	}
	if s.CertConflictBudget < 0 {
		s.CertConflictBudget = 0
	}
	if s.Metric == "maxerr" {
		// The certified job type: pin the bound into the persisted spec so a
		// resumed job certifies against exactly what the submitter asked for.
		if s.MaxError == 0 {
			s.MaxError = s.Threshold
		}
		if s.MaxError <= 0 {
			return fmt.Errorf("metric maxerr needs a positive max_error (or threshold), got %v", s.MaxError)
		}
	}
	def := core.DefaultOptions(errest.ER, 0)
	if s.Seed == 0 {
		s.Seed = def.Seed
	}
	if s.EvalPatterns <= 0 {
		s.EvalPatterns = def.EvalPatterns
	}
	if s.InitialRounds <= 0 {
		s.InitialRounds = def.InitialRounds
	}
	if s.MaxLACsPerNode <= 0 {
		s.MaxLACsPerNode = def.MaxLACsPerNode
	}
	if s.Patience <= 0 {
		s.Patience = def.Patience
	}
	if s.Scale <= 0 || s.Scale > 1 {
		s.Scale = def.Scale
	}
	if s.MaxStall <= 0 {
		s.MaxStall = def.MaxStall
	}
	if s.MaxDepthRatio < 0 {
		s.MaxDepthRatio = 0
	}
	if s.Workers < 0 {
		s.Workers = 0
	}
	if s.TimeoutSec < 0 {
		s.TimeoutSec = 0
	}
	if s.Format == "" {
		s.Format = "auto"
	}
	switch s.Format {
	case "auto", "blif", "aag", "aig":
	default:
		return fmt.Errorf("unknown circuit format %q (auto, blif, aag, aig)", s.Format)
	}
	return nil
}

// Options rebuilds the core.Options for this spec. Two calls on the same
// normalized spec return identical options — the property crash-safe resume
// relies on.
func (s JobSpec) Options() (core.Options, error) {
	m, err := core.ParseMetric(s.Metric)
	if err != nil {
		return core.Options{}, err
	}
	opts := core.DefaultOptions(m, s.Threshold)
	opts.MaxError = s.MaxError
	opts.CertConflictBudget = s.CertConflictBudget
	opts.Seed = s.Seed
	opts.EvalPatterns = s.EvalPatterns
	opts.InitialRounds = s.InitialRounds
	opts.MaxLACsPerNode = s.MaxLACsPerNode
	opts.Patience = s.Patience
	opts.Scale = s.Scale
	opts.MaxStall = s.MaxStall
	opts.MaxDepthRatio = s.MaxDepthRatio
	opts.Workers = s.Workers
	opts.Windowed = s.Windowed
	return opts, nil
}

// ParseCircuit decodes the submitted circuit body according to the spec's
// format ("auto" sniffs AIGER magic, otherwise BLIF).
func ParseCircuit(format string, data []byte) (*aig.Graph, error) {
	switch format {
	case "aag", "aig":
		return aiger.Read(bytes.NewReader(data))
	case "blif":
		return readBLIF(data)
	case "auto", "":
		if bytes.HasPrefix(data, []byte("aag ")) || bytes.HasPrefix(data, []byte("aig ")) {
			return aiger.Read(bytes.NewReader(data))
		}
		return readBLIF(data)
	}
	return nil, fmt.Errorf("unknown circuit format %q", format)
}

func readBLIF(data []byte) (*aig.Graph, error) {
	net, err := blif.Read(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return net.ToAIG()
}
