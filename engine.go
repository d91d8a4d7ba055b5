package slj

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/dbn"
	"repro/internal/extract"
	"repro/internal/imaging"
	"repro/internal/keypoint"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Engine drives a System across many clips on a pool of workers. The
// vision front end (extraction → thinning → skeleton graph → key-point
// encoding) is stateless across clips, so clips fan out over the pool;
// the DBN back end is temporal — each frame's posterior conditions on the
// previous frame's pose — so every clip is still decoded serially by one
// worker, and training consumes clip sequences in their original order.
// Results are therefore bit-identical to the sequential System methods
// regardless of worker count; every worker count, one included, runs the
// same fan-out path (see fanOut).
//
// Each worker owns a private extractor (extract.Extractor carries scratch
// buffers and is not safe for concurrent use) but all workers share one
// classifier bank: DBN inference is read-only, and only Train mutates it,
// from the calling goroutine. Engine methods are safe to call from
// multiple goroutines, except Train and LoadModel, which mutate the
// shared model and must not run concurrently with anything else.
type Engine struct {
	workers int
	sys     *System
	scope   *obs.Scope // captured at construction: workers relabel their
	// System's scope per clip, so e.sys.opts.Scope cannot be read while
	// systems are checked out
	systems []*System    // len == workers; systems[0] == sys
	free    chan *System // worker checkout; buffered to len(systems)

	inflight atomic.Int64 // source clips checked out by workers
}

// NewEngine builds a System from opts (as NewSystem would) and wraps it
// in an Engine with the given worker count. workers < 1 selects
// runtime.NumCPU().
func NewEngine(workers int, opts ...Option) (*Engine, error) {
	sys, err := NewSystem(opts...)
	if err != nil {
		return nil, err
	}
	return NewEngineFrom(sys, workers)
}

// NewEngineFrom wraps an existing — possibly already trained — System.
// The System must not be used directly while the Engine is active.
func NewEngineFrom(sys *System, workers int) (*Engine, error) {
	w := parallel.Workers(workers)
	e := &Engine{workers: w, sys: sys, scope: sys.opts.Scope}
	e.systems = make([]*System, w)
	e.systems[0] = sys
	for i := 1; i < w; i++ {
		clone, err := sys.clone()
		if err != nil {
			return nil, err
		}
		e.systems[i] = clone
	}
	e.free = make(chan *System, w)
	for _, s := range e.systems {
		e.free <- s
	}
	e.scope.PoolFree(len(e.free))
	return e, nil
}

// clone returns a System sharing s's options and classifier bank but
// owning a fresh extractor, so one Engine worker can run independently.
func (s *System) clone() (*System, error) {
	ex, err := extract.NewExtractor(s.opts.Extractor...)
	if err != nil {
		return nil, fmt.Errorf("slj: %w", err)
	}
	ex.SetScope(s.opts.Scope)
	c := &System{opts: s.opts, extractor: ex, classifier: s.classifier}
	if s.scratch != nil {
		c.scratch = newFrameScratch()
	}
	return c, nil
}

// Workers reports the resolved worker count.
func (e *Engine) Workers() int { return e.workers }

// System returns the primary underlying System (shared classifier).
func (e *Engine) System() *System { return e.sys }

// acquire checks a System out of the worker pool, timing any wait for a
// free one; release returns it. Both track the pool's free count.
func (e *Engine) acquire() *System {
	sc := e.scope
	if sc == nil {
		return <-e.free
	}
	select {
	case s := <-e.free:
		sc.PoolFree(len(e.free))
		return s
	default:
	}
	t0 := time.Now()
	s := <-e.free
	sc.AcquireStall(time.Since(t0))
	sc.PoolFree(len(e.free))
	return s
}

func (e *Engine) release(s *System) {
	e.free <- s
	e.scope.PoolFree(len(e.free))
}

// attachSource hands the engine's scope to sources that support
// instrumentation (dataset.clips_streamed, dataset.decode_ns).
func (e *Engine) attachSource(src dataset.ClipSource) {
	if s, ok := src.(interface{ SetScope(*obs.Scope) }); ok {
		s.SetScope(e.scope)
	}
}

// pull wraps a source's Next for MapSource. The time a worker spends
// inside Next (the serialised pull, including any header decode the
// source does there) accumulates in engine.source_stall_ns. A failed
// pull is classified and journalled, then carries the package's error
// prefix, as System's sequential methods report it: a source error
// surfaces as fmt.Errorf("slj: %w", err) at every worker count. io.EOF
// passes through untouched — it terminates MapSource, it is not a
// failure.
func (e *Engine) pull(src dataset.ClipSource) func() (dataset.LabeledClip, error) {
	sc := e.scope
	return func() (dataset.LabeledClip, error) {
		var t0 time.Time
		if sc != nil {
			t0 = time.Now()
		}
		lc, err := src.Next()
		if sc != nil {
			sc.SourceStall(time.Since(t0))
		}
		if err == nil || err == io.EOF {
			return lc, err
		}
		// A failed pull aborts the run (unless the source skips, see
		// dataset.SkipCorrupt); classify and journal it either way.
		sc.RecordError(errClassOf(err), err)
		return lc, fmt.Errorf("slj: %w", err)
	}
}

// trackClip counts a source clip checked out by a worker; the returned
// func checks it back in. The high-water mark lands in the
// engine.clips_in_flight gauge — peak decoded-clip residency, which the
// streaming paths bound to the worker count.
func (e *Engine) trackClip() func() {
	n := e.inflight.Add(1)
	e.scope.ClipsInFlight(int(n))
	return func() { e.inflight.Add(-1) }
}

// fanOut is the engine's one fan-out path, used at every worker count:
// it maps fn over every clip the source yields on parallel.MapSource and
// returns the results in source order. Each clip is checked out —
// counted in engine.clips_in_flight — while fn runs on a worker System
// taken from the pool, so at most `workers` decoded clips are resident
// and the checkout count returns to zero on every exit path. The source
// is consumed to io.EOF (or the first failure) but not closed.
func fanOut[R any](e *Engine, src dataset.ClipSource, fn func(s *System, lc dataset.LabeledClip) (R, error)) ([]R, error) {
	e.attachSource(src)
	return parallel.MapSource(e.scope.Parallel(), e.workers, e.pull(src),
		func(_ int, lc dataset.LabeledClip) (R, error) {
			defer e.trackClip()()
			s := e.acquire()
			defer e.release(s)
			return fn(s, lc)
		})
}

// Train trains the shared classifier on every clip, materialised-slice
// form. It is a thin adapter over TrainSource.
func (e *Engine) Train(clips []dataset.LabeledClip) error {
	if len(clips) == 0 {
		return errors.New("slj: no training clips")
	}
	return e.TrainSource(dataset.Materialized(clips))
}

// TrainSource trains the shared classifier on every clip the source
// yields. The front-end analysis of the clips fans out over the worker
// pool, pulling clips on demand so at most `workers` decoded clips are
// in flight; the resulting labelled sequences are then fed to the DBN
// bank serially, in source order, because training updates depend on
// sequence order. The trained model is byte-identical to System.Train's
// on the same clips. The source is consumed to io.EOF but not closed.
func (e *Engine) TrainSource(src dataset.ClipSource) error {
	type clipSeq struct {
		name   string
		frames []dbn.LabeledFrame
	}
	seqs, err := fanOut(e, src, func(s *System, lc dataset.LabeledClip) (clipSeq, error) {
		defer s.observeClip(lc.Name)()
		fas, err := s.analyzeClip(lc)
		if err != nil {
			return clipSeq{}, err
		}
		frames := make([]dbn.LabeledFrame, len(fas))
		for j, fa := range fas {
			frames[j] = dbn.LabeledFrame{Label: lc.Clip.Frames[j].Label, Enc: fa.Encoding}
		}
		return clipSeq{name: lc.Name, frames: frames}, nil
	})
	if err != nil {
		return err
	}
	if len(seqs) == 0 {
		return errors.New("slj: no training clips")
	}
	for _, cs := range seqs {
		if err := e.sys.classifier.TrainSequence(cs.frames); err != nil {
			return fmt.Errorf("slj: training on %s: %w", cs.name, err)
		}
	}
	return nil
}

// Evaluate classifies every test clip and scores the results against
// ground truth, materialised-slice form. It is a thin adapter over
// EvaluateSource.
func (e *Engine) Evaluate(clips []dataset.LabeledClip) (stats.Summary, *stats.Confusion, error) {
	return e.EvaluateSource(dataset.Materialized(clips))
}

// clipScore carries one classified clip's truth and prediction out of
// the worker pool; the decoded images are dropped with the clip.
type clipScore struct {
	name         string
	truth, preds []Pose
}

// EvaluateSource classifies every clip the source yields on the worker
// pool and scores the results against ground truth. Clips are pulled on
// demand — peak residency is bounded by the worker count — and the
// summary and confusion matrix are accumulated in source order
// afterwards, so the output matches System.Evaluate over the same clips
// exactly. The source is consumed to io.EOF but not closed.
func (e *Engine) EvaluateSource(src dataset.ClipSource) (stats.Summary, *stats.Confusion, error) {
	scores, err := fanOut(e, src, func(s *System, lc dataset.LabeledClip) (clipScore, error) {
		res, err := s.ClassifyClip(lc)
		if err != nil {
			return clipScore{}, err
		}
		return clipScore{name: lc.Name, truth: lc.Clip.Labels(), preds: Poses(res)}, nil
	})
	if err != nil {
		return stats.Summary{}, nil, err
	}
	var sum stats.Summary
	var conf stats.Confusion
	for _, cs := range scores {
		cr, err := stats.EvaluateClip(cs.name, cs.truth, cs.preds)
		if err != nil {
			return stats.Summary{}, nil, fmt.Errorf("slj: %w", err)
		}
		sum.Add(cr)
		for i := range cs.truth {
			conf.Add(cs.truth[i], cs.preds[i])
		}
	}
	return sum, &conf, nil
}

// ClassifyAll decodes every clip, materialised-slice form. It is a thin
// adapter over ClassifyAllSource.
func (e *Engine) ClassifyAll(clips []dataset.LabeledClip) ([][]dbn.Result, error) {
	return e.ClassifyAllSource(dataset.Materialized(clips))
}

// ClassifyAllSource decodes every clip the source yields on the worker
// pool, returning per-clip frame results in source order. The source is
// consumed to io.EOF but not closed.
func (e *Engine) ClassifyAllSource(src dataset.ClipSource) ([][]dbn.Result, error) {
	return fanOut(e, src, (*System).ClassifyClip)
}

// CheckedOut reports the number of source clips currently checked out by
// workers — the live value behind the engine.clips_in_flight gauge. A
// quiescent engine reads zero; serving layers use this for leak checks
// and admission accounting.
func (e *Engine) CheckedOut() int64 { return e.inflight.Load() }

// PoolFree reports how many worker Systems are currently free — the live
// value behind the engine.pool_free gauge.
func (e *Engine) PoolFree() int { return len(e.free) }

// ClassifyClip decodes one clip. With more than one worker the per-frame
// front end runs as a bounded two-stage pipeline (silhouette production,
// then thinning + graph + encoding) so extraction of frame i+1 overlaps
// analysis of frame i; DBN decoding stays serial. AutoOrient needs every
// silhouette before its mirror decision, so it falls back to the batch
// path.
func (e *Engine) ClassifyClip(lc dataset.LabeledClip) ([]dbn.Result, error) {
	s := e.acquire()
	defer e.release(s)
	if e.workers > 1 && !s.opts.AutoOrient {
		return s.classifyClipPipelined(lc)
	}
	return s.ClassifyClip(lc)
}

// SaveModel serialises the shared classifier bank.
func (e *Engine) SaveModel(w io.Writer) error { return e.sys.SaveModel(w) }

// LoadModel replaces the shared classifier on every worker.
func (e *Engine) LoadModel(r io.Reader) error {
	if err := e.sys.LoadModel(r); err != nil {
		return err
	}
	for _, s := range e.systems[1:] {
		s.classifier = e.sys.classifier
		s.opts.Partitions = e.sys.opts.Partitions
		s.opts.Rings = e.sys.opts.Rings
	}
	return nil
}

// frameToken carries one frame through the two-stage analysis pipeline.
type frameToken struct {
	sil *imaging.Binary
	fa  FrameAnalysis
}

// pipelineBound caps the frames in flight between pipeline stages,
// bounding the number of live silhouette buffers per clip.
const pipelineBound = 4

// classifyClipPipelined is ClassifyClip with the per-frame front end run
// as a bounded-channel pipeline. Stage 1 (silhouette production) is
// stateful — the ROI tracker conditions on the previous frame — and runs
// in a single goroutine in frame order, exactly like the batch path;
// stage 2 (skeleton analysis) is pure per-frame. Outputs are collected in
// frame order, so results match the sequential decoder bit for bit.
func (s *System) classifyClipPipelined(lc dataset.LabeledClip) ([]dbn.Result, error) {
	defer s.observeClip(lc.Name)()
	src, err := s.silhouetteSource(lc)
	if err != nil {
		return nil, err
	}
	toks := make([]frameToken, len(lc.Clip.Frames))
	out, err := parallel.Pipeline(s.opts.Scope.Parallel(), pipelineBound, toks,
		func(i int, t frameToken) (frameToken, error) {
			sil, err := src(i)
			if err != nil {
				return t, err
			}
			t.sil = sil
			return t, nil
		},
		func(_ int, t frameToken) (frameToken, error) {
			t.fa = s.AnalyzeSilhouette(t.sil)
			return t, nil
		},
	)
	owned := s.scratch != nil && !s.opts.UseGroundTruthSilhouettes
	if err != nil {
		// Pipeline returns partial results on error: every token that
		// cleared both stages before the failure still carries its
		// silhouette. Stage 1 runs in frame order, so no silhouette is
		// produced past the failing index — releasing the partial set
		// returns everything the extractor handed out for this clip.
		if owned {
			for _, t := range out {
				if t.sil != nil {
					imaging.PutBinary(t.sil)
				}
			}
		}
		return nil, err
	}
	encs := make([]keypoint.Encoding, len(out))
	for i, t := range out {
		encs[i] = t.fa.Encoding
	}
	if owned {
		// All stages have joined and the encodings are copied out, so the
		// extractor-produced silhouettes can go back to the imaging pool.
		for _, t := range out {
			if t.sil != nil {
				imaging.PutBinary(t.sil)
			}
		}
	}
	res, err := s.classifier.ClassifySequenceScoped(encs, s.opts.Scope)
	if err != nil {
		return nil, fmt.Errorf("slj: classifying %s: %w", lc.Name, err)
	}
	return res, nil
}
