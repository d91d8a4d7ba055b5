package slj

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/synth"
)

// TestPipelinedErrorReleasesPooledSilhouettes injects a mid-clip decode
// failure into the Engine's pipelined classify path and asserts the
// imaging pool stays get/put balanced: silhouettes extracted for the
// frames before the corrupt one must go back to the pool even though
// the clip as a whole failed. A long-lived server classifying corrupt
// uploads would otherwise bleed the pool one clip at a time.
//
// The first (warm-up) run lets every lazily-acquired escaping buffer
// settle; the second run must then be perfectly balanced.
func TestPipelinedErrorReleasesPooledSilhouettes(t *testing.T) {
	ds, err := GenerateDataset(dataset.GenOptions{
		TrainClips: 1, TestClips: 1, Seed: 73, FaultEvery: 0, VaryBody: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := saveCorpus(t, ds)

	// Garble a frame in the middle of the clip: frames 0 and 1 extract
	// fine (their silhouettes come out of the pool), frame 2 fails.
	victim := filepath.Join(root, "test", "test-00", "frame-002.ppm")
	if err := os.WriteFile(victim, []byte("not a ppm"), 0o644); err != nil {
		t.Fatal(err)
	}

	src := openSplit(t, root, "test")
	defer src.Close()
	lc, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}

	// workers > 1 routes ClassifyClip through classifyClipPipelined.
	eng, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ClassifyClip(lc); err == nil {
		t.Fatal("corrupt clip classified without error")
	}

	before := imaging.PoolBalance()
	if _, err := eng.ClassifyClip(lc); err == nil {
		t.Fatal("corrupt clip classified without error")
	}
	if leaked := imaging.PoolBalance() - before; leaked != 0 {
		t.Fatalf("pipelined error path leaked %d pooled buffers (pool gets != puts across the failed clip)", leaked)
	}
}

// TestBatchErrorReleasesPooledSilhouettes is the sequential-path twin:
// clipSilhouettes must release already-extracted silhouettes when a
// later frame fails to decode.
func TestBatchErrorReleasesPooledSilhouettes(t *testing.T) {
	ds, err := GenerateDataset(dataset.GenOptions{
		TrainClips: 1, TestClips: 1, Seed: 74, FaultEvery: 0, VaryBody: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := saveCorpus(t, ds)
	victim := filepath.Join(root, "test", "test-00", "frame-002.ppm")
	if err := os.WriteFile(victim, []byte("not a ppm"), 0o644); err != nil {
		t.Fatal(err)
	}

	src := openSplit(t, root, "test")
	defer src.Close()
	lc, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ClassifyClip(lc); err == nil {
		t.Fatal("corrupt clip classified without error")
	}

	before := imaging.PoolBalance()
	if _, err := sys.ClassifyClip(lc); err == nil {
		t.Fatal("corrupt clip classified without error")
	}
	if leaked := imaging.PoolBalance() - before; leaked != 0 {
		t.Fatalf("batch error path leaked %d pooled buffers", leaked)
	}
}

// noBackgroundClip builds a clip that fails classification immediately:
// with extraction enabled and no background frame, silhouetteSource
// errors before any frame is read.
func noBackgroundClip(t *testing.T, seed int64) dataset.LabeledClip {
	t.Helper()
	clip, err := synth.Generate(synth.DefaultSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	return dataset.LabeledClip{
		Name: "no-background",
		Clip: &synth.Clip{Frames: clip.Frames},
	}
}

// TestSequentialAbortChecksClipBackIn pins the abort path's checkout
// accounting at every worker count: when a run aborts on a classify
// error, every pulled clip must be checked back in and every worker
// System returned to the pool, leaving the engine's inflight accounting
// at zero. A long-lived server reads that count for admission
// decisions, so a stuck checkout is a slow capacity leak.
func TestSequentialAbortChecksClipBackIn(t *testing.T) {
	bad := noBackgroundClip(t, 75)
	engines := map[int]*Engine{}
	for _, workers := range []int{1, 2, 8} {
		eng, err := NewEngine(workers)
		if err != nil {
			t.Fatal(err)
		}
		engines[workers] = eng
	}
	runs := []struct {
		name string
		run  func(*Engine, dataset.ClipSource) error
	}{
		{"evaluate-error", func(e *Engine, src dataset.ClipSource) error {
			_, _, err := e.EvaluateSource(src)
			return err
		}},
		{"classify-all-error", func(e *Engine, src dataset.ClipSource) error {
			_, err := e.ClassifyAllSource(src)
			return err
		}},
		{"train-error", (*Engine).TrainSource},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				eng := engines[workers]
				err := r.run(eng, dataset.Materialized([]dataset.LabeledClip{bad, bad, bad}))
				if err == nil {
					t.Fatalf("workers=%d: clip without background ran without error", workers)
				}
				if got := eng.CheckedOut(); got != 0 {
					t.Fatalf("workers=%d: %d clips still checked out after the abort, want 0", workers, got)
				}
				if got := eng.PoolFree(); got != workers {
					t.Fatalf("workers=%d: %d worker Systems free after the abort, want %d", workers, got, workers)
				}
			}
		})
	}
}
