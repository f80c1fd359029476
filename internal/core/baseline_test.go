package core_test

import (
	"repro/internal/baseline/sasimi"
	"repro/internal/core"
	"repro/internal/errest"
)

// The SASIMI baseline runs on the same session loop as ALSRAC, so it joins
// the determinism tests' inputs (see extraFlowCases).
func init() {
	core.AddFlowCase("sasimi", errest.NMED, func(o *core.Options) { *o = sasimi.Configure(*o) })
}
