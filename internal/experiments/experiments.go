// Package experiments regenerates every evaluation artifact of the paper
// — Figures 1 through 8 and the Section 5 quantitative results — plus the
// ablations and extensions called out in DESIGN.md (GA baseline cost,
// partition-count sweep, training-set-size sweep, previous-pose policy).
//
// Each experiment is a pure function of a Config: deterministic, seeded,
// returning a result value whose String() prints the rows/series the
// paper reports. The cmd/sljexp binary and the repository benchmarks are
// thin wrappers over this package.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	slj "repro"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// Config parameterises every experiment.
type Config struct {
	// Seed drives all data generation.
	Seed int64
	// Quick shrinks workloads for use inside benchmarks (fewer clips,
	// fewer GA generations). Headline numbers should be produced with
	// Quick=false.
	Quick bool
	// ArtifactDir, when non-empty, makes figure experiments write their
	// image artifacts (PPM frames, PBM skeletons, Graphviz sources)
	// under this directory so the paper's figures can be viewed
	// directly.
	ArtifactDir string
	// Workers sets the clip-evaluation worker-pool size for the
	// experiments that train/evaluate over whole corpora (sec5, cv,
	// and the ext1/ext2/ext5/ext9 sweeps). 0 leaves the sequential
	// path; < 0 selects runtime.NumCPU(). Results are identical at
	// every setting — only wall clock changes.
	Workers int
	// Obs, when non-nil, instruments every engine the experiments build
	// (stage latency histograms, health counters) and receives one
	// sweep.<exp>.<point>.ms counter per sweep point with its wall time.
	Obs *obs.Scope
	// Stream round-trips the generated corpus through a temporary
	// on-disk directory and streams clips lazily from it instead of
	// evaluating the in-memory slices (currently honoured by sec5).
	// Results are identical; only the I/O path changes — this is the
	// same bounded-memory path as sljeval -stream.
	Stream bool
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config { return Config{Seed: 2008} } // the paper's year

// workersOrSequential resolves Config.Workers for slj.NewEngine: 0 (the
// default) pins one worker. Results are identical at every worker
// count, so the default only keeps a run single-threaded.
func (c Config) workersOrSequential() int {
	if c.Workers == 0 {
		return 1
	}
	return c.Workers
}

// newEngine builds a clip-evaluation engine honouring Config.Workers and,
// when set, attaching Config.Obs to the systems it pools.
func (c Config) newEngine(opts ...slj.Option) (*slj.Engine, error) {
	if c.Obs != nil {
		opts = append(opts, slj.WithObservability(c.Obs))
	}
	return slj.NewEngine(c.workersOrSequential(), opts...)
}

// sources adapts a generated dataset to Config.Stream: by default the
// in-memory slices back MaterializedSources; with Stream set the
// dataset is first saved to a temporary on-disk corpus (removed by
// cleanup) and every open call streams that split's clips lazily from
// disk. Each returned opener yields a fresh single-use source, so a
// split can be traversed any number of times.
func (c Config) sources(ds *dataset.Dataset) (train, test func() (dataset.ClipSource, error), cleanup func(), err error) {
	if !c.Stream {
		train = func() (dataset.ClipSource, error) { return dataset.Materialized(ds.Train), nil }
		test = func() (dataset.ClipSource, error) { return dataset.Materialized(ds.Test), nil }
		return train, test, func() {}, nil
	}
	root, err := os.MkdirTemp("", "slj-stream-")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: stream corpus: %w", err)
	}
	if err := dataset.Save(root, ds); err != nil {
		os.RemoveAll(root)
		return nil, nil, nil, err
	}
	train = func() (dataset.ClipSource, error) { return dataset.OpenDir(filepath.Join(root, "train")) }
	test = func() (dataset.ClipSource, error) { return dataset.OpenDir(filepath.Join(root, "test")) }
	return train, test, func() { os.RemoveAll(root) }, nil
}

// sweepPoint reports one sweep point's wall time since start into the
// Obs registry as sweep.<name>.ms; a no-op without Obs.
func (c Config) sweepPoint(name string, start time.Time) {
	if reg := c.Obs.Registry(); reg != nil {
		reg.Counter("sweep." + name + ".ms").Add(time.Since(start).Milliseconds())
	}
}

// Runner executes one experiment.
type Runner func(Config) (fmt.Stringer, error)

// registry maps experiment ids (as used by cmd/sljexp -exp) to runners.
var registry = map[string]Runner{
	"fig1":  func(c Config) (fmt.Stringer, error) { return Fig1(c) },
	"fig2":  func(c Config) (fmt.Stringer, error) { return Fig2(c) },
	"fig3":  func(c Config) (fmt.Stringer, error) { return Fig3(c) },
	"fig4":  func(c Config) (fmt.Stringer, error) { return Fig4(c) },
	"fig5":  func(c Config) (fmt.Stringer, error) { return Fig5(c) },
	"fig6":  func(c Config) (fmt.Stringer, error) { return Fig6(c) },
	"fig7":  func(c Config) (fmt.Stringer, error) { return Fig7(c) },
	"fig8":  func(c Config) (fmt.Stringer, error) { return Fig8(c) },
	"sec5":  func(c Config) (fmt.Stringer, error) { return Sec5(c) },
	"sec5b": func(c Config) (fmt.Stringer, error) { return Sec5b(c) },
	"ga":    func(c Config) (fmt.Stringer, error) { return GABaseline(c) },
	"ext1":  func(c Config) (fmt.Stringer, error) { return Ext1(c) },
	"ext2":  func(c Config) (fmt.Stringer, error) { return Ext2(c) },
	"ext3":  func(c Config) (fmt.Stringer, error) { return Ext3(c) },
	"ext4":  func(c Config) (fmt.Stringer, error) { return Ext4(c) },
	"ext5":  func(c Config) (fmt.Stringer, error) { return Ext5(c) },
	"ext6":  func(c Config) (fmt.Stringer, error) { return Ext6(c) },
	"ext7":  func(c Config) (fmt.Stringer, error) { return Ext7(c) },
	"ext8":  func(c Config) (fmt.Stringer, error) { return Ext8(c) },
	"ext9":  func(c Config) (fmt.Stringer, error) { return Ext9(c) },
	"ext10": func(c Config) (fmt.Stringer, error) { return Ext10(c) },
	"jump":  func(c Config) (fmt.Stringer, error) { return Jump(c) },
	"cv":    func(c Config) (fmt.Stringer, error) { return CV(c) },
}

// Names lists the registered experiment ids, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment.
func Run(name string, cfg Config) (fmt.Stringer, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(cfg)
}
