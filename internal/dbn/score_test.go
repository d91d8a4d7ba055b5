package dbn

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bayes"
	"repro/internal/keypoint"
	"repro/internal/pose"
)

// veEvidence builds the bayes.Evidence the classifier fed PosteriorVE
// before the direct scorer replaced it: prev and stage when withParents,
// then every enabled channel's child values.
func veEvidence(c *Classifier, prev pose.Pose, stage pose.Stage, enc keypoint.Encoding, withParents bool) bayes.Evidence {
	ev := bayes.Evidence{}
	if withParents {
		ev[nodePrev] = int(prev)
		ev[nodeStage] = int(stage) - 1
	}
	if c.cfg.UsePartEvidence {
		for i := 0; i < keypoint.NumParts; i++ {
			ev[nodePart0+i] = enc.Area[i]
		}
	}
	if c.cfg.UseAreaEvidence {
		for j, occ := range enc.OccupiedAreas() {
			v := 0
			if occ {
				v = 1
			}
			ev[c.nodeArea0()+j] = v
		}
	}
	if c.cfg.Rings > 0 {
		for i := 0; i < keypoint.NumParts; i++ {
			ev[c.nodeRing0()+i] = enc.Ring[i]
		}
	}
	return ev
}

// randomEncoding draws an in-range encoding for cfg.
func randomEncoding(r *rand.Rand, cfg Config) keypoint.Encoding {
	enc := keypoint.Encoding{Partitions: cfg.Partitions, Rings: cfg.Rings}
	for i := range enc.Area {
		enc.Area[i] = r.Intn(cfg.Partitions + 1)
		if cfg.Rings > 0 {
			enc.Ring[i] = r.Intn(cfg.Rings + 1)
		}
	}
	return enc
}

// randomlyTrained observes random labelled frames, so the CPTs mix
// unseen rows (uniform, or 0/0 with Laplace 0) with skewed learned ones.
func randomlyTrained(t *testing.T, cfg Config, r *rand.Rand, frames int) *Classifier {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < frames; k++ {
		prev := pose.Pose(r.Intn(pose.NumPoses + 1))
		stage := pose.Stage(1 + r.Intn(pose.NumStages))
		truth := pose.Pose(1 + r.Intn(pose.NumPoses))
		if err := c.Observe(prev, stage, truth, randomEncoding(r, cfg)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestScorerMatchesVE is the randomised oracle check: over random
// training and random evidence, every Classify score and every Viterbi
// emission equals PosteriorVE's posterior exactly (==, not a tolerance).
func TestScorerMatchesVE(t *testing.T) {
	const (
		classifyFrames = 70 // × 22 poses × 7 configs ≈ 10.8k draws
		emissionFrames = 65 // × 22 poses × 7 configs ≈ 10.0k draws
	)
	with := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	// Both channel ablations, rings, a non-default partition count and
	// the smoothing extremes.
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"no-part", with(func(c *Config) { c.UsePartEvidence = false })},
		{"no-area", with(func(c *Config) { c.UseAreaEvidence = false })},
		{"rings=3", with(func(c *Config) { c.Rings = 3 })},
		{"partitions=12", with(func(c *Config) { c.Partitions = 12 })},
		{"laplace=0", with(func(c *Config) { c.Laplace = 0 })},
		{"laplace=0.3", with(func(c *Config) { c.Laplace = 0.3 })},
	}
	r := rand.New(rand.NewSource(13))
	for _, tc := range configs {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			c := randomlyTrained(t, cfg, r, 50+r.Intn(400))
			s := c.NewSession()
			for k := 0; k < classifyFrames; k++ {
				prev := pose.Pose(r.Intn(pose.NumPoses + 1))
				stage := pose.Stage(1 + r.Intn(pose.NumStages))
				enc := randomEncoding(r, cfg)
				s.prev, s.stage = prev, stage
				res, err := s.Classify(enc)
				if err != nil {
					t.Fatal(err)
				}
				ev := veEvidence(c, prev, stage, enc, true)
				for _, sc := range res.Scores {
					dist, err := c.nets[sc.Pose].PosteriorVE(nodePose, ev)
					if err != nil {
						t.Fatal(err)
					}
					if sc.Prob != dist[1] {
						t.Fatalf("classify %v (prev %v, stage %v, enc %+v): scorer %v, VE %v",
							sc.Pose, prev, stage, enc, sc.Prob, dist[1])
					}
				}
			}
			for k := 0; k < emissionFrames; k++ {
				enc := randomEncoding(r, cfg)
				emis, err := c.emissionScores(enc)
				if err != nil {
					t.Fatal(err)
				}
				ev := veEvidence(c, 0, 0, enc, false)
				for p := pose.Pose(1); p <= pose.Pose(pose.NumPoses); p++ {
					dist, err := c.nets[p].PosteriorVE(nodePose, ev)
					if err != nil {
						t.Fatal(err)
					}
					if emis[p] != dist[1] {
						t.Fatalf("emission %v (enc %+v): scorer %v, VE %v", p, enc, emis[p], dist[1])
					}
				}
			}
		})
	}
}

func TestClassifyAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	c := trainedClassifier(t, cfg, 2, 23)
	enc := encodePose(t, pose.AirTuck, rand.New(rand.NewSource(3)), cfg.Partitions)
	s := c.NewSession()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Classify(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Classify allocates %v times per frame, want 0", allocs)
	}
}

func TestClassifyRejectsOutOfRangeStates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rings = 3
	r := rand.New(rand.NewSource(5))
	c := randomlyTrained(t, cfg, r, 200)
	s := c.NewSession()
	if _, err := s.Classify(randomEncoding(r, cfg)); err != nil {
		t.Fatal(err)
	}
	prev, stage := s.Prev(), s.Stage()
	for _, tc := range []struct {
		name string
		mut  func(*keypoint.Encoding)
	}{
		{"area high", func(e *keypoint.Encoding) { e.Area[2] = cfg.Partitions + 1 }},
		{"area low", func(e *keypoint.Encoding) { e.Area[0] = -1 }},
		{"ring high", func(e *keypoint.Encoding) { e.Ring[4] = cfg.Rings + 1 }},
		{"ring low", func(e *keypoint.Encoding) { e.Ring[1] = -1 }},
	} {
		enc := randomEncoding(r, cfg)
		tc.mut(&enc)
		if _, err := s.Classify(enc); !errors.Is(err, bayes.ErrBadState) {
			t.Errorf("%s: err = %v, want bayes.ErrBadState", tc.name, err)
		}
		if s.Prev() != prev || s.Stage() != stage {
			t.Errorf("%s: session advanced to prev %v, stage %v on error", tc.name, s.Prev(), s.Stage())
		}
		if _, err := c.DecodeViterbi([]keypoint.Encoding{enc}); !errors.Is(err, bayes.ErrBadState) {
			t.Errorf("%s: Viterbi err = %v, want bayes.ErrBadState", tc.name, err)
		}
	}
}
