package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pose"
	"repro/internal/scoring"
	"repro/internal/serve"
)

// The serve-rpc load shape. pacedRPS and latencyLimit were fixed once,
// from the closed-loop capacity and unloaded latency measured on a 2-vCPU
// x86-64 VM, and are never adapted at run time (README.md).
const (
	// pacedRPS is the open-loop arrival rate: 70 % of the lowest measured
	// capacity (4.0 req/s), 54 % of the median (5.2 req/s).
	pacedRPS = 2.8
	// latencyLimit is the per-request limit ok_ratio counts against:
	// about four times the unloaded latency (~240 ms).
	latencyLimit = 1000 * time.Millisecond
	// saturationShare is the part of a run spent in the closed-loop
	// saturation phase; the paced phase takes the rest. A run alternates
	// the two phases over rounds, so both figures sample the whole run.
	saturationShare = 0.4
	rounds          = 2
	// scoreShare and modelShare shape the request mix: a quarter of
	// requests ask for a coaching report, and a few name the saved model
	// file instead of using the server's base engine.
	scoreShare = 0.25
	modelShare = 0.1
	// mixLen is the length of the seeded request sequence both phases
	// draw from, in order (wrapping if a run ever needs more).
	mixLen = 1 << 14
)

// rpcReq is one scheduled request.
type rpcReq struct {
	clip   *clipRef
	method string // "classify-clip" or "score"
	model  bool
}

// makeMix draws the seeded request sequence over the workload's clips.
func makeMix(seed int64, clips []*clipRef) []rpcReq {
	rng := rand.New(rand.NewSource(seed))
	mix := make([]rpcReq, mixLen)
	for i := range mix {
		mix[i] = rpcReq{clip: clips[rng.Intn(len(clips))], method: "classify-clip"}
		if rng.Float64() < scoreShare {
			mix[i].method = "score"
		}
		mix[i].model = rng.Float64() < modelShare
	}
	return mix
}

// arrivals returns the paced phase's due offsets: evenly spaced at
// pacedRPS over d. Even spacing keeps the offered load identical from run
// to run, so latency differences come from the server, not the draw.
func arrivals(d time.Duration) []time.Duration {
	var out []time.Duration
	for k := 0; ; k++ {
		off := time.Duration(float64(k) / pacedRPS * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// rpcClient sends /rpc requests over at most nproc keep-alive
// connections and checks each reply against the sequential reference.
type rpcClient struct {
	url    string
	tr     *http.Transport
	hc     *http.Client
	expect map[string][]byte // method + "/" + clip name → compact result JSON
	right  map[string]int    // clip name → reference frames that match the truth
}

func newRPCClient(e *env, addr string) (*rpcClient, error) {
	tr := &http.Transport{MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc, DisableCompression: true}
	c := &rpcClient{
		url:    "http://" + addr + "/rpc",
		tr:     tr,
		hc:     &http.Client{Transport: tr, Timeout: 60 * time.Second},
		expect: map[string][]byte{},
		right:  map[string]int{},
	}
	for _, cl := range e.clips {
		cr := serve.ClassifyResult{Clip: cl.name, Frames: make([]serve.FrameResult, len(cl.res))}
		for i, r := range cl.res {
			cr.Frames[i] = serve.FrameResult{Frame: i, Pose: r.Pose.String(), Stage: r.Stage.String(), Prob: r.Prob}
			if r.Pose == cl.truth[i] {
				c.right[cl.name]++
			}
		}
		b, err := json.Marshal(cr)
		if err != nil {
			return nil, err
		}
		c.expect["classify-clip/"+cl.name] = b
		if b, err = json.Marshal(scoreResult(cl.name, cl.poses())); err != nil {
			return nil, err
		}
		c.expect["score/"+cl.name] = b
	}
	return c, nil
}

// scoreResult is the score reply the server must give for a decided
// pose sequence.
func scoreResult(name string, seq []pose.Pose) serve.ScoreResult {
	rep := scoring.Evaluate(seq)
	out := serve.ScoreResult{
		Clip:          name,
		Score:         rep.Score,
		Frames:        rep.Frames,
		UnknownFrames: rep.UnknownFrames,
		Faults:        make([]serve.FaultResult, len(rep.Faults)),
		Poses:         make([]string, len(seq)),
	}
	for i, f := range rep.Faults {
		out.Faults[i] = serve.FaultResult{
			Code: string(f.Code), Description: f.Description, Advice: f.Advice,
			FirstFrame: f.FirstFrame, LastFrame: f.LastFrame, Deduction: f.Deduction,
		}
	}
	for i, p := range seq {
		out.Poses[i] = p.String()
	}
	return out
}

// rpcOutcome is one reply as the generator saw it.
type rpcOutcome struct {
	status int
	ok     bool // 200 with the reference result
	wrong  bool // 200 with any other result
	clip   string
	frames int // frames classified (on ok replies)
	right  int // of which match the truth
}

// do sends request seq and checks the reply. Transport failures count
// as failed requests, not as benchmark errors.
func (c *rpcClient) do(seq int, r rpcReq) rpcOutcome {
	params := map[string]string{"dir": r.clip.rel}
	if r.model {
		params["model"] = modelFile
	}
	body, err := json.Marshal(map[string]any{"method": r.method, "params": params, "id": seq})
	if err != nil {
		return rpcOutcome{}
	}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return rpcOutcome{}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	resp, err := c.hc.Do(req)
	if err != nil {
		return rpcOutcome{}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	out := rpcOutcome{status: resp.StatusCode}
	if err != nil || resp.StatusCode != http.StatusOK {
		return out
	}
	var envl struct {
		ID     json.RawMessage `json:"id"`
		Result json.RawMessage `json:"result"`
	}
	var got bytes.Buffer
	if json.Unmarshal(raw, &envl) != nil || string(envl.ID) != strconv.Itoa(seq) ||
		json.Compact(&got, envl.Result) != nil || !bytes.Equal(got.Bytes(), c.expect[r.method+"/"+r.clip.name]) {
		out.wrong = true
		return out
	}
	out.ok, out.clip, out.frames, out.right = true, r.clip.name, len(r.clip.res), c.right[r.clip.name]
	return out
}

// seqHeader carries the request's sequence number, so server-side
// timing can be joined to the generator's records.
const seqHeader = "X-Perfbench-Seq"

// tally accumulates outcomes.
type tally struct {
	attempted, failed, wrong, frames int
	// seen holds each answered clip's reference accuracy once, so the
	// reported accuracy does not depend on how often the mix drew a clip.
	seen map[string][2]int
}

// accuracy is the frame accuracy over the distinct clips answered.
func (t *tally) accuracy() float64 {
	var frames, right int
	for _, fr := range t.seen {
		frames += fr[0]
		right += fr[1]
	}
	return ratio(float64(right), float64(frames))
}

func (t *tally) add(o rpcOutcome) {
	t.attempted++
	if o.wrong {
		t.wrong++
	}
	if !o.ok {
		t.failed++
		return
	}
	t.frames += o.frames
	if t.seen == nil {
		t.seen = map[string][2]int{}
	}
	t.seen[o.clip] = [2]int{o.frames, o.right}
}

// saturate runs a closed-loop phase: nproc callers, each sending its
// next request from the shared sequence as soon as the previous reply
// arrives, for d. Outcomes are added to tot; it returns each answered
// request's rate in frames per second of its own latency.
func (c *rpcClient) saturate(mix []rpcReq, next *atomic.Int64, nconn int, d time.Duration, tot *tally) []float64 {
	type timed struct {
		o   rpcOutcome
		dur time.Duration
	}
	outs := make([][]timed, nconn) // one slice per caller
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	for w := 0; w < nconn; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				k := int(next.Add(1) - 1)
				t0 := time.Now()
				o := c.do(k, mix[k%len(mix)])
				outs[w] = append(outs[w], timed{o, time.Since(t0)})
			}
		}(w)
	}
	wg.Wait()
	var rates []float64
	for _, caller := range outs {
		for _, t := range caller {
			tot.add(t.o)
			if t.o.ok {
				rates = append(rates, float64(t.o.frames)/t.dur.Seconds())
			}
		}
	}
	return rates
}

// pacedRec is one open-loop request's timeline.
type pacedRec struct {
	seq            int
	due, enq, pick time.Time
	end            time.Time
	out            rpcOutcome
}

func (r pacedRec) latency() time.Duration { return r.end.Sub(r.due) }

// paced runs the open-loop phase: a single generator releases each
// request at its due time into a queue that nproc connections drain.
// Latency runs from the due time, so a stall charges every request it
// delays; enq − due is the generator's own lag.
func (c *rpcClient) paced(mix []rpcReq, next *atomic.Int64, nconn int, offs []time.Duration) []pacedRec {
	recs := make([]pacedRec, len(offs))
	jobs := make(chan int, len(offs)) // one slot per scheduled request: release never blocks
	var wg sync.WaitGroup
	for w := 0; w < nconn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				r := &recs[k]
				r.pick = time.Now()
				r.out = c.do(r.seq, mix[r.seq%len(mix)])
				r.end = time.Now()
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	for k, off := range offs {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		recs[k].seq, recs[k].due, recs[k].enq = int(next.Add(1)-1), due, time.Now()
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return recs
}

// warm sends a few requests — both methods, and one naming the saved
// model — so connections, the cached model engine and the pools are in
// place before timing.
func (c *rpcClient) warm(e *env) error {
	for i, r := range []rpcReq{
		{clip: e.clips[0], method: "classify-clip"},
		{clip: e.clips[len(e.clips)-1], method: "score"},
		{clip: e.clips[1], method: "classify-clip", model: true},
	} {
		if o := c.do(-1-i, r); !o.ok {
			return fmt.Errorf("warm-up %s %s: status %d or wrong result", r.method, r.clip.rel, o.status)
		}
	}
	return nil
}

// runServe is the serve-rpc measurement: warm-up, a closed-loop
// saturation phase, then the paced open-loop phase.
func runServe(e *env, d time.Duration, res *result) error {
	c, err := newRPCClient(e, e.srv.Addr())
	if err != nil {
		return err
	}
	defer c.tr.CloseIdleConnections()
	if err := c.warm(e); err != nil {
		return err
	}
	mix := makeMix(e.seed, e.clips)
	var next atomic.Int64
	satD := time.Duration(float64(d) * saturationShare / rounds)
	offs := arrivals(d/rounds - satD)

	ps := startSample()
	var (
		tot   tally
		rates []float64
		recs  []pacedRec
	)
	for i := 0; i < rounds; i++ {
		rates = append(rates, c.saturate(mix, &next, e.nproc, satD, &tot)...)
		recs = append(recs, c.paced(mix, &next, e.nproc, offs)...)
	}
	st := ps.finish()

	var lat []float64
	within := 0
	for _, r := range recs {
		tot.add(r.out)
		lat = append(lat, ms(r.latency()))
		if r.out.ok && r.latency() <= latencyLimit {
			within++
		}
	}
	res.Attempted, res.Failed = tot.attempted, tot.failed
	if tot.wrong > 0 {
		res.Correct = false
	}
	// Capacity: nproc callers each completing a request per latency
	// (Little's law), with the median request standing for the phase so
	// a burst of host interference does not swing the figure.
	res.set("frames_per_s", "1/s", float64(e.nproc)*median(rates))
	st.perFrame(res, tot.frames)
	res.set("ok_ratio", "ratio", ratio(float64(within), float64(len(recs))))
	res.set("frame_accuracy", "ratio", tot.accuracy())
	res.set("latency_p50_ms", "ms", median(lat))
	res.set("latency_p75_ms", "ms", quantile(lat, 0.75))
	return nil
}
