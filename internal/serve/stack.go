package serve

import "repro/internal/obs"

// The server's observability bundle is obs.Stack; these aliases keep
// the serve-package names that the separate perfbench module imports
// compiling, so the benchmark builds against this tree unchanged.
type (
	Stack       = obs.Stack
	StackConfig = obs.StackConfig
)

// NewStack forwards to obs.NewStack.
func NewStack(cfg StackConfig) (*Stack, error) { return obs.NewStack(cfg) }
