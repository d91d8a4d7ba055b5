package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/trace"
	"strings"
	"time"
)

// CLI bundles the observability command-line surface shared by the slj
// binaries (sljeval, sljexp, sljtrain, sljvideo): flag registration,
// start-up of the chosen sinks, and orderly shutdown. The zero value
// with no flags set is fully inert — Start returns a nil *Scope and the
// pipeline runs exactly as before.
type CLI struct {
	// Metrics is the -metrics listen address (expvar + JSON + Prometheus
	// + timeseries + pprof).
	Metrics string
	// Pprof is the -pprof listen address; shares the -metrics server
	// when equal or empty while -metrics is set.
	Pprof string
	// Trace is the -trace runtime/trace output path.
	Trace string
	// Spans is the -spans JSONL span-trace output path.
	Spans string
	// MetricsOut is the -metrics-out snapshot path written by Stop.
	MetricsOut string
	// SampleInterval is the -sample-interval time-series sampling period
	// (0 disables the sampler; only active when some other flag enables
	// observability).
	SampleInterval time.Duration
	// SampleWindow is the ring-buffer capacity in points.
	SampleWindow int
	// Report is the -report RUN_REPORT.json path written by Stop (a .md
	// rendering is written alongside it).
	Report string
	// ReportCompare is the -report-compare baseline report; Stop returns
	// an error when the new report regresses against it.
	ReportCompare string
	// Log is the -log structured-event JSONL path ("-" or "stderr" for
	// standard error). It may equal Spans, in which case log lines and
	// span records interleave through one shared LineSink.
	Log string
	// LogLevel is the -log-level minimum (debug|info|warn|error).
	LogLevel string
	// ErrorsOut is the -errors-out error-journal snapshot path written
	// by Stop.
	ErrorsOut string
	// HealthOut is the -health-out health snapshot path written by
	// Stop (after one final SLO evaluation).
	HealthOut string

	scope     *Scope
	metricsLn *Server
	pprofLn   *Server
	tracer    *Tracer
	traceFile *os.File
	sampler   *Sampler
	journal   *Journal
	health    *HealthEvaluator
	logSink   *LineSink
	started   time.Time
}

// RegisterFlags installs the observability flags on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Metrics, "metrics", "", "serve expvar (/debug/vars), JSON metrics (/debug/metrics), Prometheus text (/debug/metrics.prom), sampled series (/debug/timeseries) and pprof on this address, e.g. :6060")
	fs.StringVar(&c.Pprof, "pprof", "", "serve net/http/pprof on this address (separate from -metrics)")
	fs.StringVar(&c.Trace, "trace", "", "write a runtime/trace profile to this file (view with `go tool trace`)")
	fs.StringVar(&c.Spans, "spans", "", "write per-stage span timings to this file as JSON Lines (convert with sljtrace for Perfetto)")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write a final metrics snapshot (JSON) to this file on exit")
	fs.DurationVar(&c.SampleInterval, "sample-interval", time.Second, "time-series sampling period for /debug/timeseries and sljtop (0 disables sampling)")
	fs.IntVar(&c.SampleWindow, "sample-window", 300, "time-series ring-buffer capacity in samples")
	fs.StringVar(&c.Report, "report", "", "write an end-of-run report (JSON + markdown sibling) to this path, e.g. RUN_REPORT.json")
	fs.StringVar(&c.ReportCompare, "report-compare", "", "previous -report JSON to gate against; exit non-zero when stage quantiles or throughput regress")
	fs.StringVar(&c.Log, "log", "", "write structured JSONL event logs to this file (\"-\" or \"stderr\" for standard error; may equal -spans to interleave)")
	fs.StringVar(&c.LogLevel, "log-level", "info", "minimum -log level: debug|info|warn|error")
	fs.StringVar(&c.ErrorsOut, "errors-out", "", "write a final error-journal snapshot (JSON) to this file on exit")
	fs.StringVar(&c.HealthOut, "health-out", "", "write a final health/SLO snapshot (JSON) to this file on exit")
}

// Enabled reports whether any observability sink was requested.
// -sample-interval alone does not enable anything: sampling is a
// consumer of the other sinks, not a sink itself.
func (c *CLI) Enabled() bool {
	return c.Metrics != "" || c.Pprof != "" || c.Trace != "" || c.Spans != "" ||
		c.MetricsOut != "" || c.Report != "" || c.Log != "" ||
		c.ErrorsOut != "" || c.HealthOut != ""
}

// Start brings up every requested sink and returns the pipeline scope
// to thread into slj.WithObservability. When no flag was set it returns
// (nil, nil): a nil scope disables instrumentation everywhere. On error
// it tears down whatever it had already started.
func (c *CLI) Start() (*Scope, error) {
	if !c.Enabled() {
		return nil, nil
	}
	c.started = time.Now()
	c.scope = NewScope(NewRegistry())
	c.journal = NewJournal(c.scope.Registry(), 256)
	c.scope.SetJournal(c.journal)
	if c.Log != "" {
		level, err := ParseLogLevel(c.LogLevel)
		if err != nil {
			c.shutdown()
			return nil, err
		}
		if c.Log == "-" || c.Log == "stderr" {
			// Wrap stderr so the sink's Close never closes the real fd.
			c.logSink = NewLineSink(struct{ io.Writer }{os.Stderr})
		} else {
			c.logSink, err = OpenLineSink(c.Log)
			if err != nil {
				c.shutdown()
				return nil, err
			}
		}
		c.scope.SetLogger(slog.New(NewLogHandler(c.logSink, LogOptions{Level: level})))
	}
	if c.SampleInterval > 0 {
		c.sampler = NewSampler(c.scope.Registry(), c.SampleInterval, c.SampleWindow)
		h, err := NewHealthEvaluator(c.scope.Registry(), c.sampler, c.journal, DefaultSLOs())
		if err != nil {
			c.shutdown()
			return nil, err
		}
		c.health = h
		// The evaluator rides the sampler: one verdict per sample tick.
		c.sampler.SetOnTick(h.Eval)
		c.sampler.Start()
	}
	if c.Spans != "" {
		if c.logSink != nil && c.Spans == c.Log {
			// Spans and logs share one serialized sink: records
			// interleave whole-line, never mid-line.
			c.tracer = NewTracerSink(c.logSink)
		} else {
			t, err := OpenTrace(c.Spans)
			if err != nil {
				c.shutdown()
				return nil, err
			}
			c.tracer = t
		}
		c.scope.SetTracer(c.tracer)
	}
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			c.shutdown()
			return nil, fmt.Errorf("obs: creating trace file: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			c.shutdown()
			return nil, fmt.Errorf("obs: starting runtime trace: %w", err)
		}
		c.traceFile = f
	}
	if c.Metrics != "" {
		s, err := ServeWith(c.Metrics, ServeConfig{
			Registry: c.scope.Registry(),
			Sampler:  c.sampler,
			Journal:  c.journal,
			Health:   c.health,
			LogSink:  c.logSink,
		})
		if err != nil {
			c.shutdown()
			return nil, err
		}
		c.metricsLn = s
		fmt.Fprintf(os.Stderr, "obs: metrics on http://%s/debug/metrics (expvar at /debug/vars, Prometheus at /debug/metrics.prom, series at /debug/timeseries, errors at /debug/errors, health at /debug/health)\n", s.Addr())
	}
	if c.Pprof != "" && c.Pprof != c.Metrics {
		s, err := ServeWith(c.Pprof, ServeConfig{})
		if err != nil {
			c.shutdown()
			return nil, err
		}
		c.pprofLn = s
		fmt.Fprintf(os.Stderr, "obs: pprof on http://%s/debug/pprof/\n", s.Addr())
	}
	if l := c.scope.Logger(); l != nil {
		l.Info("run started", "sample_interval", c.SampleInterval)
	}
	return c.scope, nil
}

// Stop flushes and closes every sink Start opened: stops the runtime
// trace, closes the span tracer, stops the sampler (capturing one final
// tick), writes the -metrics-out snapshot and the -report files, and
// shuts the HTTP servers down gracefully. Safe to call when Start was
// never called or returned (nil, nil). When -report-compare was given
// and the new report regresses, the returned error describes every
// regression.
func (c *CLI) Stop() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if c.traceFile != nil {
		trace.Stop()
		keep(c.traceFile.Close())
		c.traceFile = nil
	}
	keep(c.tracer.Close())
	c.tracer = nil
	// Stopping the sampler takes one final tick, which (via SetOnTick)
	// runs one final SLO evaluation — the artifacts below see the whole
	// run, including its last partial window.
	c.sampler.Stop()
	if c.MetricsOut != "" && c.scope != nil {
		keep(c.writeSnapshot())
	}
	if c.ErrorsOut != "" && c.journal != nil {
		keep(writeFileWith(c.ErrorsOut, c.journal.WriteJSON))
	}
	if c.HealthOut != "" && c.scope != nil {
		keep(writeFileWith(c.HealthOut, c.health.WriteJSON))
	}
	if c.Report != "" && c.scope != nil {
		keep(c.writeReport())
	}
	if l := c.scope.Logger(); l != nil {
		l.Info("run finished", "health", c.health.Health().String(), "errors", c.journal.Total())
	}
	c.shutdown()
	keep(c.logSink.Close())
	c.logSink = nil
	return first
}

func (c *CLI) writeSnapshot() error {
	f, err := os.Create(c.MetricsOut)
	if err != nil {
		return fmt.Errorf("obs: creating metrics snapshot: %w", err)
	}
	if err := c.scope.Registry().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: writing metrics snapshot: %w", err)
	}
	return nil
}

// writeReport builds the end-of-run report from the registry's final
// snapshot and writes the JSON and markdown renderings; with
// -report-compare it then gates against the baseline report.
func (c *CLI) writeReport() error {
	rep := BuildRunReport(c.scope.Registry().Snapshot(), time.Since(c.started), time.Now())
	if c.health != nil {
		hs := c.health.Snapshot()
		rep.Health = &hs
	}
	if c.journal != nil {
		js := c.journal.Snapshot()
		rep.Errors = &js
	}
	if err := writeFileWith(c.Report, rep.WriteJSON); err != nil {
		return err
	}
	if err := writeFileWith(reportMarkdownPath(c.Report), rep.WriteMarkdown); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "obs: run report written to %s (markdown: %s)\n",
		c.Report, reportMarkdownPath(c.Report))
	if c.ReportCompare == "" {
		return nil
	}
	base, err := LoadRunReport(c.ReportCompare)
	if err != nil {
		return err
	}
	// Same spirit as benchjson -compare: latency gated loosely because
	// machines vary, throughput must not halve.
	regs := CompareRunReports(base, rep, 500, 80)
	if len(regs) == 0 {
		fmt.Fprintf(os.Stderr, "obs: report gate passed against %s\n", c.ReportCompare)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "obs: REGRESSION %s\n", r)
	}
	return fmt.Errorf("obs: %d report regression(s) against %s", len(regs), c.ReportCompare)
}

// reportMarkdownPath derives the .md sibling of a report path
// ("RUN_REPORT.json" → "RUN_REPORT.md").
func reportMarkdownPath(path string) string {
	ext := filepath.Ext(path)
	if strings.EqualFold(ext, ".json") {
		return path[:len(path)-len(ext)] + ".md"
	}
	return path + ".md"
}

// writeFileWith creates path and streams fn into it, surfacing close
// errors exactly once.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: creating %s: %w", path, err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	return nil
}

// Sampler returns the CLI's time-series sampler (nil when sampling is
// disabled or Start has not run).
func (c *CLI) Sampler() *Sampler {
	return c.sampler
}

// Health returns the CLI's SLO evaluator (nil when sampling is
// disabled or Start has not run); serving layers use it as their
// admission predicate.
func (c *CLI) Health() *HealthEvaluator {
	return c.health
}

// Journal returns the CLI's error journal (nil before Start).
func (c *CLI) Journal() *Journal {
	return c.journal
}

// shutdown closes the HTTP servers, sampler and SLO evaluator (used by
// Stop and by Start's error paths). The log sink outlives it — Stop
// closes it last so shutdown itself can still be logged.
func (c *CLI) shutdown() {
	c.health.Stop()
	c.sampler.Stop()
	c.sampler = nil
	_ = c.metricsLn.Close()
	_ = c.pprofLn.Close()
	c.metricsLn, c.pprofLn = nil, nil
}
