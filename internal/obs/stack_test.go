package obs

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestStackStopStopsHealthAndFlushesLogs pins the shutdown contract:
// Stop freezes the SLO evaluator (no late tick flips the verdict after
// shutdown) and flushes the log sink so the run's last events are on
// disk before Stop returns.
func TestStackStopStopsHealthAndFlushesLogs(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "run.jsonl")
	st, err := NewStack(StackConfig{SampleInterval: time.Hour, LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	st.Scope.Logger().Info("last words") // buffered in the sink, not yet flushed
	if err := st.Stop(); err != nil {
		t.Fatal(err)
	}
	if !st.Health.Stopped() {
		t.Error("Stop did not stop the health evaluator")
	}
	if got, err := os.ReadFile(logPath); err != nil || !strings.Contains(string(got), "last words") {
		t.Errorf("Stop did not flush the log sink; got %q (%v)", got, err)
	}
	// A late sampler tick after Stop must not re-evaluate the verdict.
	st.Registry().Counter("dataset.clips_streamed").Add(1)
	st.Journal.Record(ErrClassDecode, "t000001", "late", -1, "late error")
	st.Health.Eval()
	if got := st.Health.Health(); got != VerdictReady {
		t.Errorf("late Eval after Stop changed verdict to %v", got)
	}
	if err := st.Stop(); err != nil {
		t.Errorf("second Stop: %v", err)
	}
}

// TestNewStackZeroConfig: the zero config samples every second with no
// log sink, and a bad log level fails before anything is opened.
func TestNewStackZeroConfig(t *testing.T) {
	st, err := NewStack(StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if st.Scope == nil || st.Journal == nil || st.Health == nil || st.Sink != nil {
		t.Errorf("zero-config stack = %+v, want scope, journal and health but no sink", st)
	}
	if got := st.Sampler.Interval(); got != time.Second {
		t.Errorf("zero-config sample interval = %v, want 1s", got)
	}
	if _, err := NewStack(StackConfig{LogPath: "-", LogLevel: "loud"}); err == nil {
		t.Error("NewStack accepted log level \"loud\"")
	}
}

// TestMountNilStack: a nil stack mounts only pprof and /debug/vars.
func TestMountNilStack(t *testing.T) {
	mux := http.NewServeMux()
	(*Stack)(nil).Mount(mux)
	for path, want := range map[string]int{
		"/debug/vars":          http.StatusOK,
		"/debug/pprof/cmdline": http.StatusOK,
		"/debug/metrics":       http.StatusNotFound,
		"/debug/health":        http.StatusNotFound,
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want {
			t.Errorf("%s: status %d, want %d", path, rec.Code, want)
		}
	}
}

// TestMountRepublishesExpvar: /debug/vars shows the registry of the
// latest mounted stack, not the first one a process ever mounted.
func TestMountRepublishesExpvar(t *testing.T) {
	for _, name := range []string{"first.metric", "second.metric"} {
		reg := NewRegistry()
		reg.Counter(name).Inc()
		mux := http.NewServeMux()
		(&Stack{Scope: NewScope(reg)}).Mount(mux)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
		if !strings.Contains(rec.Body.String(), name) {
			t.Errorf("/debug/vars after mounting the %s registry does not show it", name)
		}
	}
}
