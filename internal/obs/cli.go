package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/trace"
	"strings"
	"time"
)

// CLI bundles the observability command-line surface shared by the slj
// batch binaries (sljeval, sljexp, sljtrain, sljvideo): flag
// registration, start-up of the shared Stack plus the batch-only sinks
// (span trace, runtime trace, -metrics and -pprof listeners, end-of-run
// artifacts), and orderly shutdown. The zero value with no flags set is
// fully inert — Start returns a nil *Scope and the pipeline runs
// exactly as before.
type CLI struct {
	// StackConfig holds the shared -sample-interval, -sample-window,
	// -log and -log-level settings. LogPath may equal Spans, in which
	// case log lines and span records interleave through one shared
	// LineSink. The sampling settings alone build nothing (see
	// Enabled).
	StackConfig
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
	// Report is the -report RUN_REPORT.json path written by Stop (a .md
	// rendering is written alongside it).
	Report string
	// ReportCompare is the -report-compare baseline report; Stop returns
	// an error when the new report regresses against it.
	ReportCompare string
	// ErrorsOut is the -errors-out error-journal snapshot path written
	// by Stop.
	ErrorsOut string
	// HealthOut is the -health-out health snapshot path written by
	// Stop (after one final SLO evaluation).
	HealthOut string

	stack     *Stack
	metricsLn *Server
	pprofLn   *Server
	tracer    *Tracer
	traceFile *os.File
	started   time.Time
}

// RegisterFlags installs the observability flags on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	c.StackConfig.RegisterFlags(fs)
	fs.StringVar(&c.Metrics, "metrics", "", "serve expvar (/debug/vars), JSON metrics (/debug/metrics), Prometheus text (/debug/metrics.prom), sampled series (/debug/timeseries) and pprof on this address, e.g. :6060")
	fs.StringVar(&c.Pprof, "pprof", "", "serve net/http/pprof on this address (separate from -metrics)")
	fs.StringVar(&c.Trace, "trace", "", "write a runtime/trace profile to this file (view with `go tool trace`)")
	fs.StringVar(&c.Spans, "spans", "", "write per-stage span timings to this file as JSON Lines (convert with sljtrace for Perfetto; may equal -log to interleave)")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write a final metrics snapshot (JSON) to this file on exit")
	fs.StringVar(&c.Report, "report", "", "write an end-of-run report (JSON + markdown sibling) to this path, e.g. RUN_REPORT.json")
	fs.StringVar(&c.ReportCompare, "report-compare", "", "previous -report JSON to gate against; exit non-zero when stage quantiles or throughput regress")
	fs.StringVar(&c.ErrorsOut, "errors-out", "", "write a final error-journal snapshot (JSON) to this file on exit")
	fs.StringVar(&c.HealthOut, "health-out", "", "write a final health/SLO snapshot (JSON) to this file on exit")
}

// Enabled reports whether any observability sink was requested.
// -sample-interval alone does not enable anything: sampling is a
// consumer of the other sinks, not a sink itself.
func (c *CLI) Enabled() bool {
	return c.Metrics != "" || c.Pprof != "" || c.Trace != "" || c.Spans != "" ||
		c.MetricsOut != "" || c.Report != "" || c.LogPath != "" ||
		c.ErrorsOut != "" || c.HealthOut != ""
}

// Start builds the Stack, brings up every requested batch sink and
// returns the pipeline scope to thread into slj.WithObservability.
// When no flag was set it returns (nil, nil): a nil scope disables
// instrumentation everywhere. On error it tears down whatever it had
// already started.
func (c *CLI) Start() (*Scope, error) {
	if !c.Enabled() {
		return nil, nil
	}
	c.started = time.Now()
	st, err := NewStack(c.StackConfig)
	if err != nil {
		return nil, err
	}
	c.stack = st
	if err := c.startBatch(); err != nil {
		_ = c.shutdown()
		return nil, err
	}
	if l := st.Scope.Logger(); l != nil {
		l.Info("run started", "sample_interval", st.Sampler.Interval())
	}
	return st.Scope, nil
}

// startBatch opens the batch-only sinks on top of the stack: spans,
// the runtime trace and the HTTP listeners.
func (c *CLI) startBatch() error {
	st := c.stack
	if c.Spans != "" {
		if st.Sink != nil && c.Spans == c.LogPath {
			// Spans and logs share one serialized sink: records
			// interleave whole-line, never mid-line.
			c.tracer = NewTracerSink(st.Sink)
		} else {
			t, err := OpenTrace(c.Spans)
			if err != nil {
				return err
			}
			c.tracer = t
		}
		st.Scope.SetTracer(c.tracer)
	}
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			return fmt.Errorf("obs: creating trace file: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fmt.Errorf("obs: starting runtime trace: %w", err)
		}
		c.traceFile = f
	}
	if c.Metrics != "" {
		s, err := ServeWith(c.Metrics, st)
		if err != nil {
			return err
		}
		c.metricsLn = s
		fmt.Fprintf(os.Stderr, "obs: metrics on http://%s/debug/metrics (expvar at /debug/vars, Prometheus at /debug/metrics.prom, series at /debug/timeseries, errors at /debug/errors, health at /debug/health)\n", s.Addr())
	}
	if c.Pprof != "" && c.Pprof != c.Metrics {
		s, err := ServeWith(c.Pprof, nil)
		if err != nil {
			return err
		}
		c.pprofLn = s
		fmt.Fprintf(os.Stderr, "obs: pprof on http://%s/debug/pprof/\n", s.Addr())
	}
	return nil
}

// Stop flushes and closes everything Start opened: stops the sampler
// (its final tick runs one final SLO evaluation, so the artifacts see
// the whole run, including its last partial window), writes the
// -metrics-out, -errors-out, -health-out and -report files, then shuts
// down the runtime trace, span tracer, HTTP listeners and the stack.
// Safe to call when Start was never called or returned (nil, nil).
// When -report-compare was given and the new report regresses, the
// returned error describes every regression.
func (c *CLI) Stop() error {
	st := c.stack
	if st == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	st.Sampler.Stop()
	if c.MetricsOut != "" {
		keep(writeFileWith(c.MetricsOut, st.Registry().WriteJSON))
	}
	if c.ErrorsOut != "" {
		keep(writeFileWith(c.ErrorsOut, st.Journal.WriteJSON))
	}
	if c.HealthOut != "" {
		keep(writeFileWith(c.HealthOut, st.Health.WriteJSON))
	}
	if c.Report != "" {
		keep(c.writeReport())
	}
	if l := st.Scope.Logger(); l != nil {
		l.Info("run finished", "health", st.Health.Health().String(), "errors", st.Journal.Total())
	}
	keep(c.shutdown())
	return first
}

// shutdown stops the runtime trace, closes the span tracer and the
// HTTP listeners, and stops the stack last so the listeners' final
// scrapes and the tracer's shared sink still see it open. Used by Stop
// and by Start's error path.
func (c *CLI) shutdown() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if c.traceFile != nil {
		trace.Stop()
		keep(c.traceFile.Close())
	}
	keep(c.tracer.Close())
	_ = c.metricsLn.Close()
	_ = c.pprofLn.Close()
	keep(c.stack.Stop())
	c.traceFile, c.tracer, c.metricsLn, c.pprofLn, c.stack = nil, nil, nil, nil, nil
	return first
}

// writeReport builds the end-of-run report from the registry's final
// snapshot and writes the JSON and markdown renderings; with
// -report-compare it then gates against the baseline report.
func (c *CLI) writeReport() error {
	st := c.stack
	rep := BuildRunReport(st.Registry().Snapshot(), time.Since(c.started), time.Now())
	hs, js := st.Health.Snapshot(), st.Journal.Snapshot()
	rep.Health, rep.Errors = &hs, &js
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
