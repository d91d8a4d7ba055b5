package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	slj "repro"
	"repro/internal/dataset"
	"repro/internal/dbn"
	"repro/internal/extract"
	"repro/internal/imaging"
	"repro/internal/keypoint"
	"repro/internal/pose"
	"repro/internal/scoring"
	"repro/internal/skelgraph"
	"repro/internal/thinning"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls.
type span struct {
	Name   string `json:"name"`
	Clip   string `json:"clip"`
	Parent int    `json:"parent"` // index of the causing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them once the run is over.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name, clip string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Clip: clip, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.epoch)) }

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names. The leaves are layer calls; "clip" and "frame" group them,
// and their self time is the replay's unattributed time.
const (
	spClip       = "clip"
	spFrame      = "frame"
	spOpenClip   = "dataset.open_clip"
	spDecode     = "dataset.decode"
	spBackground = "extract.background"
	spDetect     = "extract.detect"
	spSmooth     = "extract.smooth"
	spThin       = "thinning.thin"
	spGraph      = "skelgraph.graph"
	spEncode     = "keypoint.encode"
	spClassify   = "dbn.classify"
)

// frameLayers are the per-frame layer spans whose per-frame medians and
// shares are reported, with their metric names.
var frameLayers = []struct{ span, metric string }{
	{spDecode, "dataset.decode"},
	{spDetect, "extract.detect"},
	{spSmooth, "extract.smooth"},
	{spThin, "thinning.thin"},
	{spGraph, "skelgraph.graph"},
	{spEncode, "keypoint.encode"},
	{spClassify, "dbn.classify"},
}

// replayer drives one clip at a time through the layers' public
// functions, in the order System.ClassifyClip runs them, with the
// pipeline's default configuration.
type replayer struct {
	gt  bool
	ex  *extract.Extractor
	gsc *skelgraph.Scratch
	ksc *keypoint.Scratch
	clf *dbn.Classifier

	frames, kpOK, unknown, mismatches int
	passes, segments                  []float64
}

func newReplayer(e *env, clf *dbn.Classifier) (*replayer, error) {
	ex, err := extract.NewExtractor()
	if err != nil {
		return nil, err
	}
	//slj:pool-escapes the replayer owns both arenas until release
	return &replayer{gt: e.gt, ex: ex, gsc: skelgraph.GetScratch(), ksc: keypoint.GetScratch(), clf: clf}, nil
}

// clip replays one clip under a root span and checks every frame's
// encoding and decision against the sequential reference.
func (rp *replayer) clip(tr *tracer, c *clipRef) error {
	name := c.name
	root := tr.begin(spClip, name, -1)
	s := tr.begin(spOpenClip, name, root)
	r, err := dataset.OpenClip(c.dir)
	tr.end(s)
	if err != nil {
		return err
	}
	if !rp.gt {
		s = tr.begin(spBackground, name, root)
		rp.ex.SetBackground(r.Background())
		tr.end(s)
	}
	sess := rp.clf.NewSession()
	for i := 0; i < r.NumFrames(); i++ {
		f := tr.begin(spFrame, name, root)
		s = tr.begin(spDecode, name, f)
		fr, err := r.ReadFrame(i)
		tr.end(s)
		if err != nil {
			return err
		}
		sil := fr.Silhouette
		owned := false
		if !rp.gt {
			s = tr.begin(spDetect, name, f)
			raw, err := rp.ex.ExtractRaw(fr.Image)
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin(spSmooth, name, f)
			sil = rp.ex.Smooth(raw)
			tr.end(s)
			owned = sil != raw
		}
		s = tr.begin(spThin, name, f)
		//slj:pool-escapes ThinIntoCounted returns dst: skel is the pooled buffer, Put below
		skel, passes := thinning.ThinIntoCounted(imaging.GetBinary(sil.W, sil.H), sil, thinning.ZhangSuen)
		tr.end(s)
		s = tr.begin(spGraph, name, f)
		g, gerr := skelgraph.BuildScratch(skel, rp.gsc)
		if gerr == nil {
			g.Prune(skelgraph.DefaultPruneLen)
		}
		tr.end(s)
		enc := keypoint.Encoding{Partitions: keypoint.DefaultPartitions}
		ok := false
		s = tr.begin(spEncode, name, f)
		if gerr == nil {
			if kp, err := keypoint.FromGraphScratch(g, rp.ksc); err == nil {
				if en, err := keypoint.EncodeRadial(kp, keypoint.DefaultPartitions, 0); err == nil {
					enc, ok = en, true
				}
			}
		}
		tr.end(s)
		s = tr.begin(spClassify, name, f)
		res, err := sess.Classify(enc)
		tr.end(s)
		tr.end(f)
		if err != nil {
			return err
		}

		imaging.PutBinary(skel)
		if owned {
			imaging.PutBinary(sil)
		}
		rp.frames++
		rp.passes = append(rp.passes, float64(passes))
		if gerr == nil {
			rp.segments = append(rp.segments, float64(len(g.Segments)))
		}
		if ok {
			rp.kpOK++
		}
		if res.Pose == pose.PoseUnknown {
			rp.unknown++
		}
		want := c.res[i]
		if enc != c.encs[i] || res.Pose != want.Pose || res.Stage != want.Stage || res.Prob != want.Prob {
			rp.mismatches++
		}
	}
	tr.end(root)
	return nil
}

func (rp *replayer) release() {
	skelgraph.PutScratch(rp.gsc)
	keypoint.PutScratch(rp.ksc)
}

// reconcile alternates, clip by clip, untraced System.ClassifyClip (with
// its OpenClip) and the traced replay of the same clip, until d has
// passed (at least one round). It returns the untraced and traced
// seconds summed over the rounds and the untraced per-clip times.
func reconcile(e *env, rp *replayer, tr *tracer, d time.Duration) (untraced, traced float64, clipMS []float64, frames int, err error) {
	sys, err := e.referenceSystem()
	if err != nil {
		return 0, 0, nil, 0, err
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for i, c := range e.clips {
			// Alternate which side goes first, so neither always runs
			// right after the other's garbage.
			for side := 0; side < 2; side++ {
				if (side+round+i)%2 == 0 {
					t0 := time.Now()
					r, err := dataset.OpenClip(c.dir)
					if err != nil {
						return 0, 0, nil, 0, err
					}
					if _, err := sys.ClassifyClip(r.Labeled()); err != nil {
						return 0, 0, nil, 0, err
					}
					u := time.Since(t0)
					untraced += u.Seconds()
					clipMS = append(clipMS, ms(u))
					frames += len(c.res)
					continue
				}
				root := len(tr.spans)
				if err := rp.clip(tr, c); err != nil {
					return 0, 0, nil, 0, err
				}
				traced += float64(tr.spans[root].dur()) / 1e9
			}
		}
	}
	return untraced, traced, clipMS, frames, nil
}

// layerReport turns the span tree into per-layer metrics: per-frame
// medians and shares of replayed clip time for each frame layer, the
// per-clip OpenClip median, and the unattributed share (the self time of
// the clip and frame spans).
func layerReport(tr *tracer, res *result) {
	perFrame := map[string][]float64{}
	total := map[string]int64{}
	children := make([]int64, len(tr.spans))
	var roots int64
	var openClip []float64
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		} else {
			roots += s.dur()
		}
		total[s.Name] += s.dur()
		switch {
		case s.Name == spOpenClip:
			openClip = append(openClip, float64(s.dur())/1e6)
		case s.Parent >= 0 && tr.spans[s.Parent].Name == spFrame:
			perFrame[s.Name] = append(perFrame[s.Name], float64(s.dur())/1e6)
		}
	}
	var self int64
	for i, s := range tr.spans {
		if s.Name == spClip || s.Name == spFrame {
			self += s.dur() - children[i]
		}
	}
	for _, l := range frameLayers {
		res.set(l.metric+"_ms", "ms", median(perFrame[l.span]))
		res.set(l.metric+"_share", "ratio", ratio(float64(total[l.span]), float64(roots)))
	}
	res.set("dataset.open_clip_ms", "ms", median(openClip))
	res.set("trace.unattributed_share", "ratio", ratio(float64(self), float64(roots)))
}

// report gives the replay's per-frame counts and fails the run when any
// frame differed from the sequential reference.
func (rp *replayer) report(res *result) {
	res.set("thinning.passes", "count", median(rp.passes))
	res.set("skelgraph.segments", "count", median(rp.segments))
	res.set("keypoint.ok_ratio", "ratio", ratio(float64(rp.kpOK), float64(rp.frames)))
	res.set("dbn.unknown_ratio", "ratio", ratio(float64(rp.unknown), float64(rp.frames)))
	if rp.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: replay differs from System.ClassifyClip on %d of %d frames\n", rp.mismatches, rp.frames)
		res.Correct = false
	}
}

// dbnAllocs classifies every clip's reference encodings with a fresh
// session and returns the allocations per classified frame.
func dbnAllocs(e *env, clf *dbn.Classifier) (float64, error) {
	var m0, m1 runtime.MemStats
	frames := 0
	runtime.ReadMemStats(&m0)
	for _, c := range e.clips {
		sess := clf.NewSession()
		for _, enc := range c.encs {
			if _, err := sess.Classify(enc); err != nil {
				return 0, err
			}
		}
		frames += len(c.encs)
	}
	runtime.ReadMemStats(&m1)
	return ratio(float64(m1.Mallocs-m0.Mallocs), float64(frames)), nil
}

// traceSetup prepares what every traced run needs: the reference
// encodings, a replayer on a copy of the trained classifier, and the
// per-frame DBN allocation count.
func traceSetup(e *env, res *result) (*replayer, error) {
	if err := e.referenceEncodings(); err != nil {
		return nil, err
	}
	sys, err := e.referenceSystem()
	if err != nil {
		return nil, err
	}
	rp, err := newReplayer(e, sys.Classifier())
	if err != nil {
		return nil, err
	}
	allocs, err := dbnAllocs(e, sys.Classifier())
	if err != nil {
		return nil, err
	}
	res.set("dbn.allocs_per_frame", "count", allocs)
	// Reading the pool balance again: the reference System keeps its
	// last extracted silhouette until its next frame.
	e.poolPre = imaging.PoolBalance()
	return rp, nil
}

// replayAndReport runs the reconciliation for d and reports the layer
// metrics, the overhead share and the span dump.
func replayAndReport(e *env, rp *replayer, d time.Duration, res *result, traces string) (seqFPS float64, clipMS []float64, err error) {
	tr := newTracer()
	untraced, traced, clipMS, frames, err := reconcile(e, rp, tr, d)
	if err != nil {
		return 0, nil, err
	}
	layerReport(tr, res)
	rp.report(res)
	res.set("trace.overhead_share", "ratio", ratio(traced-untraced, untraced))
	path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	if err := tr.write(path); err != nil {
		return 0, nil, err
	}
	return float64(frames) / untraced, clipMS, nil
}

// zeroServe reports the serving-layer metrics of a workload that has no
// serving layer.
func zeroServe(res *result) {
	for _, n := range []string{"serve.handler_ms", "serve.overhead_ms", "serve.queue_wait_ms", "serve.gen_lag_ms", "scoring.evaluate_ms"} {
		res.set(n, "ms", 0)
	}
	res.set("serve.shed", "count", 0)
	res.set("serve.response_bytes", "B", 0)
}

// traceEval is the traced run of eval-rgb / eval-silhouette: an untraced
// closed-loop phase (engine throughput, GC and pool figures), then the
// reconciliation of the replay against System.ClassifyClip.
func traceEval(e *env, d time.Duration, res *result, traces string) error {
	rp, err := traceSetup(e, res)
	if err != nil {
		return err
	}
	defer rp.release()
	if _, ok, err := e.evalPass(); err != nil {
		return err
	} else if !ok {
		res.Correct = false
	}
	ps := startSample()
	start := time.Now()
	_, frames, _, err := e.evalLoop(d*3/10, res)
	elapsed := time.Since(start)
	st := ps.finish()
	if err != nil {
		return err
	}
	st.runtimeLayer(res, frames)
	seqFPS, clipMS, err := replayAndReport(e, rp, d*7/10, res, traces)
	if err != nil {
		return err
	}
	res.set("engine.clip_ms", "ms", median(clipMS))
	res.set("engine.parallel_speedup", "ratio", ratio(float64(frames)/elapsed.Seconds(), seqFPS))
	zeroServe(res)
	res.set("imaging.pool_balance", "count", float64(imaging.PoolBalance()-e.poolPre))
	return nil
}

// handlerTimes is the timing middleware's record, keyed by the request
// sequence number.
type handlerTimes struct {
	mu    sync.Mutex
	ns    map[int]int64
	bytes map[int]int
}

// get returns the record of request seq.
func (ht *handlerTimes) get(seq int) (ms float64, bytes int) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	return float64(ht.ns[seq]) / 1e6, ht.bytes[seq]
}

// countingWriter counts response bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// wrap times every request through h.
func (ht *handlerTimes) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(t0)
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil {
			return
		}
		ht.mu.Lock()
		ht.ns[seq], ht.bytes[seq] = d.Nanoseconds(), cw.n
		ht.mu.Unlock()
	})
}

// attributeShare is the part of a traced serve run spent sending
// requests one at a time and timing the layers they reach directly.
const attributeShare = 0.25

// traceServe is the traced run of serve-rpc. The server's handler is
// wrapped in a timing middleware on a listener of the benchmark's own;
// the paced phase gives handler, queue and generator figures; then
// requests from the same mix are sent one at a time and their clips'
// dataset.OpenClip, Engine.ClassifyClip and scoring.Evaluate are timed
// directly, so handler time can be split into layers. Finally the
// serving clips are replayed layer by layer.
func traceServe(e *env, d time.Duration, res *result, traces string) error {
	rp, err := traceSetup(e, res)
	if err != nil {
		return err
	}
	defer rp.release()
	ht := &handlerTimes{ns: map[int]int64{}, bytes: map[int]int{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: ht.wrap(e.srv.Handler()), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c, err := newRPCClient(e, ln.Addr().String())
	if err != nil {
		hs.Close()
		return err
	}
	defer c.tr.CloseIdleConnections()
	att, err := traceServeRequests(e, c, ht, d, res)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	if err != nil {
		return err
	}
	seqFPS, _, err := replayAndReport(e, rp, d*3/10, res, traces)
	if err != nil {
		return err
	}
	res.set("engine.parallel_speedup", "ratio", ratio(att.engineFPS, seqFPS))
	// For serve-rpc the unit of work is the request: unattributed is the
	// handler time that no directly timed layer accounts for.
	res.set("trace.unattributed_share", "ratio", att.unattributed)
	res.set("imaging.pool_balance", "count", float64(imaging.PoolBalance()-e.poolPre))
	return nil
}

// directLayers times, outside the server, the layer calls request r
// makes inside it: dataset.OpenClip, Engine.ClassifyClip on the base
// engine and scoring.Evaluate (which only score requests make). The
// decisions must match the sequential reference.
func directLayers(e *env, r rpcReq) (open, eng, sc time.Duration, err error) {
	t0 := time.Now()
	cr, err := dataset.OpenClip(r.clip.dir)
	open = time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 = time.Now()
	out, err := e.eng.ClassifyClip(cr.Labeled())
	eng = time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	seq := slj.Poses(out)
	t0 = time.Now()
	scoring.Evaluate(seq)
	sc = time.Since(t0)
	if !slices.Equal(seq, r.clip.poses()) {
		return 0, 0, 0, fmt.Errorf("Engine.ClassifyClip on %s differs from the sequential reference", r.clip.name)
	}
	return open, eng, sc, nil
}

// attribution is what the one-at-a-time requests measured.
type attribution struct {
	engineFPS    float64 // frames/s of OpenClip + Engine.ClassifyClip
	unattributed float64 // share of handler time outside the timed layers
}

// traceServeRequests runs the paced phase and the one-at-a-time
// attribution through the middleware.
func traceServeRequests(e *env, c *rpcClient, ht *handlerTimes, d time.Duration, res *result) (attribution, error) {
	if err := c.warm(e); err != nil {
		return attribution{}, err
	}
	mix := makeMix(e.seed, e.clips)
	var next atomic.Int64
	shed := e.stack.Registry().Counter("serve.shed")
	shed0 := shed.Value()
	ps := startSample()
	recs := c.paced(mix, &next, e.nproc, arrivals(d*45/100))
	st := ps.finish()
	var frames int
	var handler, wait, lag, bytes []float64
	for _, r := range recs {
		res.Attempted++
		if !r.out.ok {
			res.Failed++
		}
		if r.out.wrong {
			res.Correct = false
		}
		frames += r.out.frames
		h, n := ht.get(r.seq)
		handler = append(handler, h)
		bytes = append(bytes, float64(n))
		wait = append(wait, ms(r.pick.Sub(r.enq)))
		lag = append(lag, ms(r.enq.Sub(r.due)))
	}
	st.runtimeLayer(res, frames)
	res.set("serve.handler_ms", "ms", median(handler))
	res.set("serve.queue_wait_ms", "ms", median(wait))
	res.set("serve.gen_lag_ms", "ms", median(lag))
	res.set("serve.response_bytes", "B", median(bytes))
	res.set("serve.shed", "count", float64(shed.Value()-shed0))

	// One request at a time: handler time, and the same clip's layers
	// called directly on the idle base engine, alternating which of the
	// two goes first.
	var over, scoreMS, engMS []float64
	var overSum, handlerSum float64
	engFrames, engTime := 0, 0.0
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < time.Duration(float64(d)*attributeShare); n++ {
		k := int(next.Add(1) - 1)
		r := mix[k%len(mix)]
		var o rpcOutcome
		if n%2 == 0 {
			o = c.do(k, r)
		}
		open, eng, sc, err := directLayers(e, r)
		if err != nil {
			return attribution{}, err
		}
		if n%2 == 1 {
			o = c.do(k, r)
		}
		res.Attempted++
		if !o.ok {
			res.Failed++
			if o.wrong {
				res.Correct = false
			}
			continue
		}
		scoreMS = append(scoreMS, ms(sc))
		if r.method != "score" {
			sc = 0 // timed for the layer figure, but not part of this request
		}
		engMS = append(engMS, ms(eng))
		engFrames += len(r.clip.res)
		engTime += (open + eng).Seconds()
		h, _ := ht.get(k)
		rest := h - ms(open) - ms(eng) - ms(sc)
		over = append(over, rest)
		overSum += rest
		handlerSum += h
	}
	res.set("serve.overhead_ms", "ms", median(over))
	res.set("scoring.evaluate_ms", "ms", median(scoreMS))
	res.set("engine.clip_ms", "ms", median(engMS))
	return attribution{engineFPS: ratio(float64(engFrames), engTime), unattributed: ratio(overSum, handlerSum)}, nil
}
