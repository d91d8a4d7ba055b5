package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	slj "repro"
	"repro/internal/dataset"
	"repro/internal/dbn"
	"repro/internal/imaging"
	"repro/internal/keypoint"
	"repro/internal/pose"
	"repro/internal/serve"
	"repro/internal/stats"
)

const (
	// testClips sizes the evaluation split. DefaultGenOptions keeps the
	// paper's 12 training clips; the test split is widened from 3 to 12
	// so a pass keeps every worker busy and one clip's quirks do not
	// dominate a seed's accuracy.
	testClips = 12
	// setupReps is how many times a run sets the system up; setup_s is
	// their median.
	setupReps = 3
	// modelFile is the saved model that serve-rpc requests name, so they
	// go through the server's model registry.
	modelFile = "model.gob"
)

// clipRef is one clip's sequential reference: the decisions of
// System.ClassifyClip at one worker, and (for traced runs) the per-frame
// encodings System.AnalyzeFrame / AnalyzeSilhouette derive.
type clipRef struct {
	name  string
	dir   string // absolute clip directory
	rel   string // directory relative to the corpus root (RPC "dir")
	truth []pose.Pose
	res   []dbn.Result
	encs  []keypoint.Encoding
}

func (c *clipRef) poses() []pose.Pose { return slj.Poses(c.res) }

// env is one run's prepared system: the on-disk corpus, the trained
// engine (and, for serve-rpc, the server), and the sequential reference.
type env struct {
	workload string
	seed     int64
	gt       bool // ground-truth silhouettes (eval-silhouette)
	nproc    int
	root     string // corpus root: root/train, root/test, root/model.gob
	testDir  string
	model    []byte

	eng   *slj.Engine
	stack *serve.Stack
	srv   *serve.Server

	setupS  float64 // median setup time, seconds
	trainMS float64 // median TrainSource time, milliseconds

	clips   []*clipRef // the workload's clips: the test split (+ faults for serve-rpc)
	refSum  stats.Summary
	refConf stats.Confusion
	refAcc  float64

	poolPre int64 // imaging.PoolBalance before the workload
}

// setup writes the seeded corpus to disk, sets the system up setupReps
// times (timing each), and computes the sequential reference.
func setup(workload string, seed int64, gt bool, nproc int, dir string) (*env, error) {
	e := &env{workload: workload, seed: seed, gt: gt, nproc: nproc, root: filepath.Join(dir, "data")}
	e.testDir = filepath.Join(e.root, "test")
	opts := dataset.DefaultGenOptions(seed)
	opts.TestClips = testClips
	ds, err := dataset.Generate(opts)
	if err != nil {
		return nil, err
	}
	if err := dataset.Save(e.root, ds); err != nil {
		return nil, err
	}
	// Write the ~200 MB corpus out now: left dirty, the kernel would write
	// it back half a minute later, in the middle of the timed phase.
	syscall.Sync()
	for _, lc := range ds.Test {
		e.clips = append(e.clips, &clipRef{name: lc.Name, rel: filepath.Join("test", lc.Name)})
	}
	if workload == "serve-rpc" {
		// Standard test jumps carry no faults; add the training split's
		// fault clips so score requests have advice to give.
		for i, lc := range ds.Train {
			if opts.FaultEvery > 0 && i%opts.FaultEvery == opts.FaultEvery-1 {
				e.clips = append(e.clips, &clipRef{name: lc.Name, rel: filepath.Join("train", lc.Name)})
			}
		}
	}
	for _, c := range e.clips {
		c.dir = filepath.Join(e.root, c.rel)
	}
	ds = nil

	var setups, trains []float64
	for i := 0; i < setupReps; i++ {
		if e.srv != nil {
			// Keep only the last rep's server.
			if err := e.srv.Close(); err != nil {
				return nil, err
			}
			e.srv, e.stack = nil, nil
		}
		runtime.GC()
		t0 := time.Now()
		train, err := e.setupOnce()
		if err != nil {
			e.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, ms(train))
	}
	e.setupS, e.trainMS = median(setups), median(trains)

	var buf bytes.Buffer
	if err := e.eng.SaveModel(&buf); err != nil {
		e.close()
		return nil, err
	}
	e.model = buf.Bytes()
	if err := e.reference(); err != nil {
		e.close()
		return nil, err
	}
	e.poolPre = imaging.PoolBalance()
	return e, nil
}

// setupOnce makes the system ready to serve its workload: an engine
// trained on the on-disk training split and, for serve-rpc, the saved
// model plus a listening server built as cmd/sljserve builds it.
func (e *env) setupOnce() (train time.Duration, err error) {
	var opts []slj.Option
	if e.gt {
		opts = append(opts, slj.WithGroundTruthSilhouettes(true))
	}
	if e.workload == "serve-rpc" {
		if e.stack, err = serve.NewStack(serve.StackConfig{}); err != nil {
			return 0, err
		}
		opts = append(opts, slj.WithObservability(e.stack.Scope))
	}
	if e.eng, err = slj.NewEngine(e.nproc, opts...); err != nil {
		return 0, err
	}
	src, err := dataset.OpenDir(filepath.Join(e.root, "train"))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = e.eng.TrainSource(src)
	train = time.Since(t0)
	src.Close()
	if err != nil || e.workload != "serve-rpc" {
		return train, err
	}
	f, err := os.Create(filepath.Join(e.root, modelFile))
	if err != nil {
		return 0, err
	}
	if err := e.eng.SaveModel(f); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	e.srv, err = serve.New(serve.Config{
		Engine:        e.eng,
		DataRoot:      e.root,
		ModelCacheCap: 4,
		EngineOptions: opts,
		Obs:           e.stack,
	})
	if err != nil {
		return 0, err
	}
	return train, e.srv.Start("127.0.0.1:0")
}

// referenceSystem builds a fresh sequential System holding the trained
// model.
func (e *env) referenceSystem() (*slj.System, error) {
	sys, err := slj.NewSystem(slj.WithGroundTruthSilhouettes(e.gt))
	if err != nil {
		return nil, err
	}
	if err := sys.LoadModel(bytes.NewReader(e.model)); err != nil {
		return nil, err
	}
	return sys, nil
}

// reference classifies every workload clip with sequential
// System.ClassifyClip at one worker and derives the expected summary,
// confusion matrix and accuracy of an evaluation pass. The clips are
// shared out over nproc one-worker Systems running side by side, which
// shortens set-up without changing any decision.
func (e *env) reference() error {
	errs := make([]error, e.nproc)
	var wg sync.WaitGroup
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sys, err := e.referenceSystem()
			if err != nil {
				errs[w] = err
				return
			}
			for i := w; i < len(e.clips); i += e.nproc {
				if errs[w] = e.clips[i].classify(sys); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, c := range e.clips {
		if c.rel != filepath.Join("test", c.name) {
			continue // fault clips are requested over RPC, not evaluated
		}
		cr, err := stats.EvaluateClip(c.name, c.truth, c.poses())
		if err != nil {
			return err
		}
		e.refSum.Add(cr)
		for i := range c.truth {
			e.refConf.Add(c.truth[i], c.res[i].Pose)
		}
	}
	e.refAcc = e.refSum.OverallAccuracy()
	return nil
}

// classify fills the clip's reference decisions and truth from sys.
func (c *clipRef) classify(sys *slj.System) error {
	r, err := dataset.OpenClip(c.dir)
	if err != nil {
		return err
	}
	lc := r.Labeled()
	if c.res, err = sys.ClassifyClip(lc); err != nil {
		return err
	}
	c.truth = lc.Clip.Labels()
	return nil
}

// referenceEncodings fills each clip's per-frame encodings through the
// public System front end, for the traced replay's equivalence check.
func (e *env) referenceEncodings() error {
	sys, err := e.referenceSystem()
	if err != nil {
		return err
	}
	for _, c := range e.clips {
		r, err := dataset.OpenClip(c.dir)
		if err != nil {
			return err
		}
		if !e.gt {
			sys.SetBackground(r.Background())
		}
		c.encs = make([]keypoint.Encoding, r.NumFrames())
		for i := range c.encs {
			fr, err := r.ReadFrame(i)
			if err != nil {
				return err
			}
			var fa slj.FrameAnalysis
			if e.gt {
				fa = sys.AnalyzeSilhouette(fr.Silhouette)
			} else if fa, err = sys.AnalyzeFrame(fr.Image); err != nil {
				return err
			}
			c.encs[i] = fa.Encoding
		}
	}
	return nil
}

// checkAccounting verifies that every pooled image buffer the run took
// came back and that no engine still has a clip checked out.
func (e *env) checkAccounting() error {
	if d := imaging.PoolBalance() - e.poolPre; d != 0 {
		return fmt.Errorf("imaging pool balance moved by %d during the run", d)
	}
	if n := e.eng.CheckedOut(); n != 0 {
		return fmt.Errorf("engine has %d clips checked out", n)
	}
	if e.stack != nil {
		for _, m := range e.stack.Registry().Snapshot().Counters {
			if m.Name == "serve.clips_checked_out" && m.Value != 0 {
				return fmt.Errorf("server engines have %d clips checked out", m.Value)
			}
		}
	}
	return nil
}

func (e *env) close() {
	if e.srv != nil {
		if err := e.srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing server:", err)
		}
		e.srv = nil
	}
}

// ---- process-level measurement ----------------------------------------

// procSample brackets a measured phase: allocation counters, GC cycles
// and pauses, pool hits, and the live heap (what the last GC found
// reachable), sampled every 2 ms.
type procSample struct {
	m0      runtime.MemStats
	hits0   int64
	misses0 int64
	stop    chan struct{}
	heap    chan []float64 // the sampler's live-heap samples (MB), sent once it stops
}

func startSample() *procSample {
	p := &procSample{stop: make(chan struct{}), heap: make(chan []float64, 1)}
	runtime.ReadMemStats(&p.m0)
	p.hits0, p.misses0, _ = imaging.PoolCounters()
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var mb []float64
		for {
			metrics.Read(s)
			mb = append(mb, float64(s[0].Value.Uint64())/1e6)
			select {
			case <-p.stop:
				p.heap <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// phaseStats is what a finished procSample measured.
type phaseStats struct {
	mallocs, bytes uint64
	peakMB         float64
	gcCycles       uint32
	gcPauseMS      float64 // median stop-the-world pause of the phase's cycles
	poolHitRatio   float64
}

func (p *procSample) finish() phaseStats {
	close(p.stop)
	heap := <-p.heap
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	hits, misses, _ := imaging.PoolCounters()
	// The live heap moves once per GC cycle, and a cycle's figure
	// includes what was allocated while it marked, so its maximum swings
	// with GC timing: the 95th percentile is the steady peak.
	st := phaseStats{
		mallocs:      m1.Mallocs - p.m0.Mallocs,
		bytes:        m1.TotalAlloc - p.m0.TotalAlloc,
		peakMB:       quantile(heap, 0.95),
		gcCycles:     m1.NumGC - p.m0.NumGC,
		poolHitRatio: ratio(float64(hits-p.hits0), float64(hits-p.hits0+misses-p.misses0)),
	}
	var pauses []float64
	for c := p.m0.NumGC + 1; c <= m1.NumGC && len(pauses) < len(m1.PauseNs); c++ {
		pauses = append(pauses, float64(m1.PauseNs[(c+255)%256])/1e6)
	}
	st.gcPauseMS = median(pauses)
	return st
}

// perFrame reports the phase's allocation figures per classified frame.
func (st phaseStats) perFrame(res *result, frames int) {
	res.set("allocs_per_frame", "count", ratio(float64(st.mallocs), float64(frames)))
	res.set("bytes_per_frame", "B", ratio(float64(st.bytes), float64(frames)))
	res.set("peak_heap_mb", "MB", st.peakMB)
}

// runtimeLayer reports the phase's GC and pool figures as per-layer
// metrics.
func (st phaseStats) runtimeLayer(res *result, frames int) {
	res.set("runtime.gc_cycles_per_kframe", "count", ratio(1000*float64(st.gcCycles), float64(frames)))
	res.set("runtime.gc_pause_ms", "ms", st.gcPauseMS)
	res.set("imaging.pool_hit_ratio", "ratio", st.poolHitRatio)
}
