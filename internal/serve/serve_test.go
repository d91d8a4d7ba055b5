package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	slj "repro"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/synth"
)

// trainedEngine builds an engine trained on a small synthetic corpus.
func trainedEngine(t *testing.T, workers int, seed int64) *slj.Engine {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenOptions{TrainClips: 2, TestClips: 1, Seed: seed, VaryBody: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slj.NewEngine(workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Train(ds.Train); err != nil {
		t.Fatal(err)
	}
	return eng
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = trainedEngine(t, 2, 41)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post sends an /rpc request body through the handler and returns the
// recorded response.
func post(s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) response {
	t.Helper()
	var resp response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not a JSON envelope: %v\n%s", err, rec.Body.String())
	}
	return resp
}

func TestHandlerErrorTable(t *testing.T) {
	s := testServer(t, Config{MaxBody: 512})
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{
			name:       "malformed-json",
			body:       `{"method": "classify-clip", "params":`,
			wantStatus: http.StatusBadRequest,
			wantCode:   "bad-request",
		},
		{
			name:       "unknown-method",
			body:       `{"method": "transmogrify", "id": 7}`,
			wantStatus: http.StatusNotFound,
			wantCode:   "unknown-method",
		},
		{
			name:       "oversized-body",
			body:       `{"method": "classify-clip", "params": {"dir": "` + strings.Repeat("x", 600) + `"}}`,
			wantStatus: http.StatusRequestEntityTooLarge,
			wantCode:   "body-too-large",
		},
		{
			name:       "no-clip-selected",
			body:       `{"method": "classify-clip", "params": {}}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   "bad-request",
		},
		{
			name:       "dir-without-data-root",
			body:       `{"method": "classify-clip", "params": {"dir": "test/test-00"}}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   "bad-request",
		},
		{
			name:       "both-dir-and-synthetic",
			body:       `{"method": "classify-clip", "params": {"dir": "a", "synthetic": {"seed": 1}}}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   "bad-request",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(s, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d\n%s", rec.Code, tc.wantStatus, rec.Body.String())
			}
			resp := decodeEnvelope(t, rec)
			if resp.Error == nil {
				t.Fatal("response has no error object")
			}
			if resp.Error.Code != tc.wantCode {
				t.Errorf("error code = %q, want %q (%s)", resp.Error.Code, tc.wantCode, resp.Error.Message)
			}
		})
	}
}

func TestHandlerRejectsNonPost(t *testing.T) {
	s := testServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/rpc", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
}

func TestPathConfinement(t *testing.T) {
	root := t.TempDir()
	s := testServer(t, Config{DataRoot: root})
	for _, dir := range []string{"../outside", "/etc/passwd", "a/../../b", ""} {
		body := fmt.Sprintf(`{"method": "classify-clip", "params": {"dir": %q}}`, dir)
		rec := post(s, body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("dir %q: status = %d, want 400", dir, rec.Code)
		}
	}
}

func TestIDEchoedVerbatim(t *testing.T) {
	s := testServer(t, Config{})
	rec := post(s, `{"method": "classify-clip", "params": {"synthetic": {"seed": 5}}, "id": {"req": "abc-123"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", rec.Code, rec.Body.String())
	}
	resp := decodeEnvelope(t, rec)
	var got struct {
		Req string `json:"req"`
	}
	if err := json.Unmarshal(resp.ID, &got); err != nil || got.Req != "abc-123" {
		t.Fatalf("id not echoed verbatim: %s (err %v)", resp.ID, err)
	}
}

// TestClassifyClipGolden asserts the HTTP round trip is bit-identical
// to calling Engine.ClassifyClip directly on the same clip.
func TestClassifyClipGolden(t *testing.T) {
	eng := trainedEngine(t, 2, 41)
	s := testServer(t, Config{Engine: eng})

	const seed = 914
	rec := post(s, fmt.Sprintf(`{"method": "classify-clip", "params": {"synthetic": {"seed": %d}}}`, seed))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", rec.Code, rec.Body.String())
	}
	resp := decodeEnvelope(t, rec)
	raw, err := json.Marshal(resp.Result)
	if err != nil {
		t.Fatal(err)
	}
	var got ClassifyResult
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}

	clip, err := synth.Generate(synth.DefaultSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ClassifyClip(dataset.LabeledClip{Name: fmt.Sprintf("synthetic-%d", seed), Clip: clip})
	if err != nil {
		t.Fatal(err)
	}
	want := classifyResult(fmt.Sprintf("synthetic-%d", seed), res)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HTTP classify diverges from Engine.ClassifyClip:\ngot  %+v\nwant %+v", got, want)
	}
	if len(got.Frames) == 0 {
		t.Fatal("classify returned no frames")
	}
}

// TestScoreAndEvaluateOverHTTP exercises the other two registry methods
// end to end against an on-disk corpus under DataRoot.
func TestScoreAndEvaluateOverHTTP(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenOptions{TrainClips: 2, TestClips: 2, Seed: 47, VaryBody: true})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := dataset.Save(root, ds); err != nil {
		t.Fatal(err)
	}
	eng := trainedEngine(t, 2, 47)
	s := testServer(t, Config{Engine: eng, DataRoot: root})

	rec := post(s, `{"method": "score", "params": {"synthetic": {"seed": 9}}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("score: status = %d\n%s", rec.Code, rec.Body.String())
	}
	var score ScoreResult
	mustResult(t, rec, &score)
	if score.Frames == 0 || len(score.Poses) != score.Frames {
		t.Fatalf("score result malformed: %+v", score)
	}
	if score.Score < 0 || score.Score > 100 {
		t.Fatalf("score out of range: %d", score.Score)
	}

	rec = post(s, `{"method": "evaluate-corpus", "params": {"dir": "test", "workers": 2}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("evaluate: status = %d\n%s", rec.Code, rec.Body.String())
	}
	var eval EvaluateResult
	mustResult(t, rec, &eval)
	if len(eval.Clips) != 2 {
		t.Fatalf("evaluated %d clips, want 2", len(eval.Clips))
	}
	if eval.Accuracy <= 0 || eval.Accuracy > 1 {
		t.Fatalf("accuracy out of range: %v", eval.Accuracy)
	}
}

func mustResult(t *testing.T, rec *httptest.ResponseRecorder, out any) {
	t.Helper()
	resp := decodeEnvelope(t, rec)
	raw, err := json.Marshal(resp.Result)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
}

// TestShedWhenSaturated pins the admission contract: with a one-worker
// engine, a second request arriving while the first holds the budget is
// shed with 503 + Retry-After rather than queued.
func TestShedWhenSaturated(t *testing.T) {
	eng := trainedEngine(t, 1, 43)
	s := testServer(t, Config{Engine: eng})

	// A test-only method that parks inside the admission window until
	// released, holding its one-worker charge.
	entered := make(chan struct{})
	release := make(chan struct{})
	s.methods["block"] = method{
		cost: func(int) int { return 1 },
		run: func(*Server, json.RawMessage, int) (any, *apiError) {
			close(entered)
			<-release
			return "done", nil
		},
	}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(s, `{"method": "block"}`) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking request never admitted")
	}

	rec := post(s, `{"method": "classify-clip", "params": {"synthetic": {"seed": 1}}}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: status = %d, want 503\n%s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After header")
	}
	resp := decodeEnvelope(t, rec)
	if resp.Error == nil || resp.Error.Code != "overloaded" {
		t.Fatalf("shed error = %+v, want code overloaded", resp.Error)
	}

	close(release)
	blocked := <-done
	if blocked.Code != http.StatusOK {
		t.Fatalf("blocking request: status = %d, want 200", blocked.Code)
	}
	// Budget fully returned: the next request is admitted again.
	rec = post(s, `{"method": "classify-clip", "params": {"synthetic": {"seed": 1}}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-release request: status = %d, want 200\n%s", rec.Code, rec.Body.String())
	}
	if got := s.admitted.Load(); got != 0 {
		t.Fatalf("admitted = %d after all requests done, want 0", got)
	}
}

// TestEvaluateWorkerAskClamped: an absurd workers ask is clamped to
// capacity rather than rejected or over-admitted.
func TestEvaluateWorkerAskClamped(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenOptions{TrainClips: 2, TestClips: 1, Seed: 53, VaryBody: true})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := dataset.Save(root, ds); err != nil {
		t.Fatal(err)
	}
	eng := trainedEngine(t, 2, 53)
	s := testServer(t, Config{Engine: eng, DataRoot: root})
	rec := post(s, `{"method": "evaluate-corpus", "params": {"dir": "test", "workers": 9999}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", rec.Code, rec.Body.String())
	}
	if got := s.admitted.Load(); got != 0 {
		t.Fatalf("admitted = %d after request, want 0", got)
	}
}

// TestModelRegistry exercises the content-hash cache: two paths with
// identical bytes share an engine; a changed file gets a fresh one.
func TestModelRegistry(t *testing.T) {
	eng := trainedEngine(t, 2, 59)
	var buf bytes.Buffer
	if err := eng.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	for _, name := range []string{"a.model", "b.model"} {
		if err := os.WriteFile(filepath.Join(root, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := testServer(t, Config{Engine: eng, DataRoot: root})

	for _, model := range []string{"a.model", "b.model"} {
		body := fmt.Sprintf(`{"method": "classify-clip", "params": {"synthetic": {"seed": 3}, "model": %q}}`, model)
		rec := post(s, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("model %s: status = %d\n%s", model, rec.Code, rec.Body.String())
		}
	}
	if got := s.models.Len(); got != 1 {
		t.Fatalf("model cache holds %d entries for identical bytes, want 1", got)
	}

	// Train a different model into b.model: next request loads a second engine.
	other := trainedEngine(t, 2, 61)
	var buf2 bytes.Buffer
	if err := other.SaveModel(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "b.model"), buf2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := post(s, `{"method": "classify-clip", "params": {"synthetic": {"seed": 3}, "model": "b.model"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("replaced model: status = %d\n%s", rec.Code, rec.Body.String())
	}
	if got := s.models.Len(); got != 2 {
		t.Fatalf("model cache holds %d entries after replacement, want 2", got)
	}
	if rec := post(s, `{"method": "classify-clip", "params": {"synthetic": {"seed": 3}, "model": "missing.model"}}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing model: status = %d, want 400", rec.Code)
	}
}

// TestGracefulClose: Close drains an in-flight request (it completes
// with 200) while new arrivals during the drain are shed.
func TestGracefulClose(t *testing.T) {
	eng := trainedEngine(t, 2, 67)
	st, err := obs.NewStack(obs.StackConfig{SampleInterval: 20 * time.Millisecond, SampleWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Config{Engine: eng, Obs: st, DrainTimeout: 5 * time.Second})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	s.methods["block"] = method{
		cost: func(int) int { return 1 },
		run: func(*Server, json.RawMessage, int) (any, *apiError) {
			close(entered)
			<-release
			return "drained", nil
		},
	}

	url := "http://" + s.Addr() + "/rpc"
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(`{"method": "block"}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		resp.Body.Close()
		done <- result{status: resp.StatusCode}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never admitted")
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	// While draining, the admission gate is shut even in-process.
	waitFor(t, func() bool { return s.draining.Load() })
	if s.admit(1) {
		t.Error("admit succeeded while draining")
	}

	close(release)
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200 (drain should let it finish)", r.status)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDebugEndpointsMounted: the obs surface rides the same mux.
func TestDebugEndpointsMounted(t *testing.T) {
	st, err := obs.NewStack(obs.StackConfig{SampleInterval: 20 * time.Millisecond, SampleWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Config{Obs: st})
	defer func() { _ = st.Stop() }()

	post(s, `{"method": "classify-clip", "params": {"synthetic": {"seed": 2}}}`)
	for _, path := range []string{"/debug/metrics", "/debug/health", "/debug/errors", "/debug/timeseries"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status = %d, want 200", path, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/debug/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	snap := st.Registry().Snapshot()
	names := make(map[string]bool)
	for _, m := range snap.Counters {
		names[m.Name] = true
	}
	for _, m := range snap.Gauges {
		names[m.Name] = true
	}
	for _, m := range snap.Histograms {
		names[m.Name] = true
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("/debug/metrics is not valid JSON: %s", rec.Body.String())
	}
	for _, name := range []string{"serve.requests", "serve.inflight_workers", "serve.clips_checked_out", "serve.request_ns"} {
		if !names[name] {
			t.Errorf("metric %q missing from registry snapshot", name)
		}
	}
}
