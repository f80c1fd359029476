package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/aig"
)

// keyVersion tags the derivation so any change to the fingerprint, the
// field list, or the session semantics (a new optimization that changes
// results) can invalidate every cached blob at once by bumping it.
const keyVersion = "alsrac-cluster-key-v2"

// JobKey derives the content address of a job: a hex SHA-256 over the
// circuit's structural fingerprint and every spec field that influences the
// final result. Two submissions with equal keys provably compute the same
// answer (the flow is deterministic in exactly these inputs), so checkpoints
// and results are shared across job ids by key.
//
// Deliberately excluded:
//   - Workers: intra-job parallelism is bitwise-invariant (the
//     worker-count determinism contract), so a 1-thread and an 8-thread run share cache entries.
//   - TimeoutSec: a deadline changes *whether* the run finishes, not what it
//     converges to; timed-out best-so-far results are never cached (they
//     live in the job's own directory).
//   - Format: the fingerprint is taken after parsing, so the same circuit
//     submitted as BLIF and as AIGER collides — that is the point.
//
// The spec must already be normalized (Normalize fills defaults), otherwise
// an explicit default and an absent field would key differently.
func JobKey(spec JobSpec, g *aig.Graph) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", keyVersion)
	fmt.Fprintf(h, "fp=%016x\n", aig.Fingerprint(g))
	fmt.Fprintf(h, "metric=%s threshold=%g maxerror=%g certbudget=%d\n",
		spec.Metric, spec.Threshold, spec.MaxError, spec.CertConflictBudget)
	fmt.Fprintf(h, "seed=%d eval=%d n=%d l=%d t=%d r=%g maxstall=%d maxdepth=%g\n",
		spec.Seed, spec.EvalPatterns, spec.InitialRounds, spec.MaxLACsPerNode,
		spec.Patience, spec.Scale, spec.MaxStall, spec.MaxDepthRatio)
	fmt.Fprintf(h, "windowed=%t\n", spec.Windowed)
	return hex.EncodeToString(h.Sum(nil))
}
