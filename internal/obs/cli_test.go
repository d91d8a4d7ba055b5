package obs

import (
	"bufio"
	"encoding/json"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/trace"
	"testing"
)

// TestCLIZeroValueInert: with no flag set the CLI starts nothing.
func TestCLIZeroValueInert(t *testing.T) {
	var c CLI
	sc, err := c.Start()
	if sc != nil || err != nil {
		t.Fatalf("zero CLI Start = %v, %v; want nil, nil", sc, err)
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("zero CLI Stop = %v", err)
	}
}

// TestCLIArtifacts drives a whole run through the flag surface: one
// file shared by -log and -spans, every end-of-run artifact, and the
// -metrics listener, which serves health while running and is gone
// after Stop.
func TestCLIArtifacts(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	var c CLI
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	c.RegisterFlags(fs)
	if err := fs.Parse([]string{
		"-log", path("run.jsonl"), "-spans", path("run.jsonl"),
		"-metrics-out", path("metrics.json"), "-errors-out", path("errors.json"),
		"-health-out", path("health.json"), "-report", path("RUN_REPORT.json"),
		"-metrics", "127.0.0.1:0",
	}); err != nil {
		t.Fatal(err)
	}
	sc, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	for _, clip := range []string{"a", "b"} {
		cs := sc.WithClip(clip)
		cs.Start(StageThin).End()
		cs.Logger().Info("clip done")
	}
	addr := c.metricsLn.Addr()
	var hs HealthSnapshot
	if err := json.Unmarshal([]byte(mustGet(t, addr, "/debug/health")), &hs); err != nil {
		t.Fatalf("/debug/health invalid JSON: %v", err)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/debug/health"); err == nil {
		t.Error("GET after Stop succeeded; -metrics listener should be closed")
	}

	for _, name := range []string{"metrics.json", "errors.json", "health.json", "RUN_REPORT.json"} {
		b, err := os.ReadFile(path(name))
		if err != nil || !json.Valid(b) {
			t.Errorf("%s: not valid JSON (%v): %q", name, err, b)
		}
	}
	if _, err := os.Stat(path("RUN_REPORT.md")); err != nil {
		t.Errorf("markdown report missing: %v", err)
	}

	f, err := os.Open(path("run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans, logs int
	sc2 := bufio.NewScanner(f)
	for sc2.Scan() {
		var rec struct {
			Stage string `json:"stage"`
			Msg   string `json:"msg"`
		}
		if err := json.Unmarshal(sc2.Bytes(), &rec); err != nil {
			t.Fatalf("torn line in shared -log/-spans file: %v\n%q", err, sc2.Text())
		}
		switch {
		case rec.Stage == "thin":
			spans++
		case rec.Msg != "":
			logs++
		}
	}
	// Two spans; "run started", two "clip done" and "run finished".
	if spans != 2 || logs != 4 {
		t.Errorf("shared file holds %d spans and %d log lines, want 2 and 4", spans, logs)
	}
}

// TestCLIStartErrorTearsDown: when a listener fails to bind, Start
// must undo what it already started — the runtime trace, the span
// tracer and the stack — not only the listeners.
func TestCLIStartErrorTearsDown(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	dir := t.TempDir()
	c := CLI{
		Trace:   filepath.Join(dir, "trace.out"),
		Spans:   filepath.Join(dir, "spans.jsonl"),
		Metrics: busy.Addr().String(),
	}
	if sc, err := c.Start(); err == nil {
		_ = c.Stop()
		t.Fatalf("Start on a bound port = %v, nil; want an error", sc)
	}
	if trace.IsEnabled() {
		trace.Stop()
		t.Error("runtime trace still running after failed Start")
	}
	if c.tracer != nil || c.traceFile != nil || c.stack != nil {
		t.Errorf("failed Start left tracer=%v traceFile=%v stack=%v open", c.tracer, c.traceFile, c.stack)
	}
	if err := c.Stop(); err != nil {
		t.Errorf("Stop after failed Start = %v", err)
	}
}
