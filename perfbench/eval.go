package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// evalPass runs one Section 5 evaluation: the test split is re-opened
// from disk and streamed through Engine.EvaluateSource. It reports
// whether the summary and confusion matrix match the sequential
// reference exactly.
func (e *env) evalPass() (stats.Summary, bool, error) {
	src, err := dataset.OpenDir(e.testDir)
	if err != nil {
		return stats.Summary{}, false, err
	}
	defer src.Close()
	sum, conf, err := e.eng.EvaluateSource(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: evaluation pass failed:", err)
		return stats.Summary{}, false, nil
	}
	return sum, reflect.DeepEqual(sum, e.refSum) && reflect.DeepEqual(*conf, e.refConf), nil
}

// evalLoop runs evaluation passes back to back for d (closed loop, one
// caller). It returns the pass times with the host's CPU steal left out
// (host.go), the frames processed and the last pass's frame accuracy;
// failed passes are counted in res.
func (e *env) evalLoop(d time.Duration, res *result) (lat []float64, frames int, acc float64, err error) {
	start := time.Now()
	for time.Since(start) < d {
		sw := startUnstolen()
		sum, ok, err := e.evalPass()
		if err != nil {
			return nil, 0, 0, err
		}
		lat = append(lat, ms(sw.elapsed()))
		res.Attempted++
		frames += e.refSum.TotalFrames()
		if !ok {
			res.Failed++
			res.Correct = false
			continue
		}
		if acc = sum.OverallAccuracy(); acc != e.refAcc {
			res.Correct = false
		}
	}
	return lat, frames, acc, nil
}

// runEval is the eval-rgb / eval-silhouette measurement: a warm-up pass,
// then closed-loop passes for d.
func runEval(e *env, d time.Duration, res *result) error {
	if _, ok, err := e.evalPass(); err != nil {
		return err
	} else if !ok {
		res.Correct = false
	}
	ps := startSample()
	lat, frames, acc, err := e.evalLoop(d, res)
	st := ps.finish()
	if err != nil {
		return err
	}
	// Throughput of the median pass: a burst of interference that slows a
	// pass or two moves a total over the run, not the median.
	res.set("frames_per_s", "1/s", ratio(float64(e.refSum.TotalFrames()), median(lat)/1000))
	st.perFrame(res, frames)
	res.set("ok_ratio", "ratio", ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)))
	res.set("frame_accuracy", "ratio", acc)
	res.set("latency_p50_ms", "ms", median(lat))
	res.set("latency_p75_ms", "ms", quantile(lat, 0.75))
	return nil
}
