// Stack bootstraps the observability subsystems a long-lived server
// always wants on: registry, scope, error journal, time-series sampler
// and SLO health evaluator, plus an optional structured-log sink. The
// batch CLIs gate all of this behind obs.CLI flags (a silent run is a
// valid run); a server has no silent mode — its admission control reads
// the health verdict, so the evaluator must exist.
package serve

import (
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/obs"
)

// StackConfig tunes the server observability bundle. The zero value is
// valid: one-second sampling, a five-minute ring window, no log file.
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

// Stack is the assembled bundle. All fields are non-nil after NewStack
// except Sink (nil without LogPath).
type Stack struct {
	Scope   *obs.Scope
	Sampler *obs.Sampler
	Journal *obs.Journal
	Health  *obs.HealthEvaluator
	Sink    *obs.LineSink
}

// NewStack builds and starts the bundle: the sampler begins ticking and
// the health evaluator rides its tick. Callers own Stop.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = time.Second
	}
	if cfg.SampleWindow <= 0 {
		cfg.SampleWindow = 300
	}
	st := &Stack{Scope: obs.NewScope(obs.NewRegistry())}
	st.Journal = obs.NewJournal(st.Scope.Registry(), 256)
	st.Scope.SetJournal(st.Journal)
	if cfg.LogPath != "" {
		level, err := obs.ParseLogLevel(levelOr(cfg.LogLevel))
		if err != nil {
			return nil, err
		}
		if cfg.LogPath == "-" || cfg.LogPath == "stderr" {
			// Wrap stderr so the sink's Close never closes the real fd.
			st.Sink = obs.NewLineSink(struct{ io.Writer }{os.Stderr})
		} else {
			st.Sink, err = obs.OpenLineSink(cfg.LogPath)
			if err != nil {
				return nil, err
			}
		}
		st.Scope.SetLogger(slog.New(obs.NewLogHandler(st.Sink, obs.LogOptions{Level: level})))
	}
	st.Sampler = obs.NewSampler(st.Scope.Registry(), cfg.SampleInterval, cfg.SampleWindow)
	h, err := obs.NewHealthEvaluator(st.Scope.Registry(), st.Sampler, st.Journal, obs.DefaultSLOs())
	if err != nil {
		_ = st.Sink.Close()
		return nil, err
	}
	st.Health = h
	st.Sampler.SetOnTick(h.Eval)
	st.Sampler.Start()
	return st, nil
}

func levelOr(level string) string {
	if level == "" {
		return "info"
	}
	return level
}

// Registry returns the stack's metric registry (nil-safe).
func (st *Stack) Registry() *obs.Registry {
	if st == nil {
		return nil
	}
	return st.Scope.Registry()
}

// ServeConfig shapes the stack for obs.MountDebug / obs.ServeWith.
func (st *Stack) ServeConfig() obs.ServeConfig {
	if st == nil {
		return obs.ServeConfig{}
	}
	return obs.ServeConfig{
		Registry: st.Scope.Registry(),
		Sampler:  st.Sampler,
		Journal:  st.Journal,
		Health:   st.Health,
		LogSink:  st.Sink,
	}
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
