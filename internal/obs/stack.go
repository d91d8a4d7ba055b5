// The observability stack is the one bootstrap every slj binary shares:
// registry, scope, error journal, time-series sampler and SLO health
// evaluator, plus an optional structured-log sink. The batch CLIs build
// it only when some obs.CLI flag asks for it (a silent run is a valid
// run) and add their batch-only pieces on top; sljserve always builds
// it, because a server has no silent mode — its admission control reads
// the health verdict, so the evaluator must exist.

package obs

import (
	"flag"
	"io"
	"log/slog"
	"os"
	"time"
)

// StackConfig tunes the stack. The zero value is valid: one-second
// sampling, a 300-sample ring window, no log file.
type StackConfig struct {
	// SampleInterval is the time-series sampling period (and therefore
	// the health re-evaluation period). 0 means one second.
	SampleInterval time.Duration
	// SampleWindow is the ring-buffer capacity in samples. 0 means 300.
	SampleWindow int
	// LogPath writes structured JSONL event logs: a file path, or "-" /
	// "stderr" for standard error. Empty disables logging.
	LogPath string
	// LogLevel is the minimum log level (debug|info|warn|error); empty
	// means info.
	LogLevel string
}

// RegisterFlags installs -sample-interval, -sample-window, -log and
// -log-level on fs, the flags every slj binary shares.
func (c *StackConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.DurationVar(&c.SampleInterval, "sample-interval", time.Second, "time-series sampling and health re-evaluation period for /debug/timeseries, /debug/health and sljtop (0 means 1s)")
	fs.IntVar(&c.SampleWindow, "sample-window", 300, "time-series ring-buffer capacity in samples")
	fs.StringVar(&c.LogPath, "log", "", "write structured JSONL event logs to this file (\"-\" or \"stderr\" for standard error)")
	fs.StringVar(&c.LogLevel, "log-level", "info", "minimum -log level: debug|info|warn|error")
}

// Stack is the assembled bundle. All fields are non-nil after NewStack
// except Sink (nil without LogPath).
type Stack struct {
	Scope   *Scope
	Sampler *Sampler
	Journal *Journal
	Health  *HealthEvaluator
	Sink    *LineSink
}

// NewStack builds and starts the bundle: the sampler begins ticking and
// the health evaluator rides its tick, one verdict per sample. Callers
// own Stop.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = time.Second
	}
	if cfg.SampleWindow <= 0 {
		cfg.SampleWindow = 300
	}
	if cfg.LogLevel == "" {
		cfg.LogLevel = "info"
	}
	st := &Stack{Scope: NewScope(NewRegistry())}
	st.Journal = NewJournal(st.Scope.Registry(), 256)
	st.Scope.SetJournal(st.Journal)
	if cfg.LogPath != "" {
		level, err := ParseLogLevel(cfg.LogLevel)
		if err != nil {
			return nil, err
		}
		if cfg.LogPath == "-" || cfg.LogPath == "stderr" {
			// Wrap stderr so the sink's Close never closes the real fd.
			st.Sink = NewLineSink(struct{ io.Writer }{os.Stderr})
		} else if st.Sink, err = OpenLineSink(cfg.LogPath); err != nil {
			return nil, err
		}
		st.Scope.SetLogger(slog.New(NewLogHandler(st.Sink, LogOptions{Level: level})))
	}
	st.Sampler = NewSampler(st.Scope.Registry(), cfg.SampleInterval, cfg.SampleWindow)
	h, err := NewHealthEvaluator(st.Scope.Registry(), st.Sampler, st.Journal, DefaultSLOs())
	if err != nil {
		_ = st.Sink.Close()
		return nil, err
	}
	st.Health = h
	st.Sampler.SetOnTick(h.Eval)
	st.Sampler.Start()
	return st, nil
}

// Registry returns the stack's metric registry (nil-safe).
func (st *Stack) Registry() *Registry {
	if st == nil {
		return nil
	}
	return st.Scope.Registry()
}

// Stop shuts the bundle down in dependency order: the health evaluator
// first (no late tick re-evaluates a dying process), then the sampler
// (its Stop takes one final tick), then the log sink is flushed and
// closed — the run's last events are on disk when Stop returns. Safe on
// nil and safe to call twice.
func (st *Stack) Stop() error {
	if st == nil {
		return nil
	}
	st.Health.Stop()
	st.Sampler.Stop()
	return st.Sink.Close()
}
