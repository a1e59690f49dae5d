package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"pbpair/internal/serve"
	"pbpair/internal/synth"
)

// serveLoad is one generated serving workload.
type serveLoad struct {
	interval time.Duration // server frame pacing
	window   time.Duration // serve.Config.CohortWindow
	sessions []sessionPlan
	identity bool // loss-free members of a cohort must get identical streams
}

// warmFrames is the length of the set-up's warm-up sessions, one per
// content regime: enough to build each regime's source and encoder
// state once before timing.
const warmFrames = 2

// fleetLoad: 512 viewers of four shared streams. Hellos go out 1 ms
// apart, all inside the cohort window, so each cohort starts as one
// lineage; one member per cohort injects 5% loss and forks.
func fleetLoad(o options) serveLoad {
	n, interval, spacing := 512, 40*time.Millisecond, time.Millisecond
	if o.quick {
		n, interval, spacing = 16, 20*time.Millisecond, 2*time.Millisecond
	}
	ramp := time.Duration(n) * spacing
	l := serveLoad{interval: interval, window: ramp + ramp/4, identity: true}
	// The stream fills what is left of the phase after the ramp.
	frames := max(10, int((o.seconds-l.window)/interval))
	regimes := []synth.Regime{synth.RegimeForeman, synth.RegimeAkiyo, synth.RegimeGarden, synth.RegimeMobile}
	g := splitmix(o.seed)
	lossy := map[int]bool{}
	for c := range regimes {
		lossy[c+len(regimes)*g.intn(n/len(regimes))] = true
	}
	for i := 0; i < n; i++ {
		c := i % len(regimes)
		p := sessionPlan{at: time.Duration(i) * spacing, regime: regimes[c], qp: 8, frames: frames, cohort: c, seed: g.next()}
		if lossy[i] {
			p.drop = 0.05
		}
		l.sessions = append(l.sessions, p)
	}
	return l
}

// churnLoad: private, short sessions arriving at 8/s. Arrival times
// are a Poisson process conditioned on its count (uniform order
// statistics). The 40 regime × QP keys are dealt out evenly and one
// session in four of each key injects 8% loss, so every seed offers
// the same mix of work in a different order.
func churnLoad(o options) serveLoad {
	rate, frames, interval := 8.0, 50, 40*time.Millisecond
	if o.quick {
		rate, frames, interval = 12, 10, 20*time.Millisecond
	}
	regimes := []synth.Regime{synth.RegimeAkiyo, synth.RegimeForeman, synth.RegimeGarden, synth.RegimeHall, synth.RegimeMobile}
	qps := []int{4, 6, 8, 10, 12, 14, 16, 18}
	n := max(1, int(rate*o.seconds.Seconds()+0.5))
	g := splitmix(o.seed)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(g.float64() * float64(o.seconds))
	}
	slices.Sort(at)
	nkeys := len(regimes) * len(qps)
	l := serveLoad{interval: interval}
	for i, deal := range g.perm(n) {
		k := deal % nkeys
		p := sessionPlan{at: at[i], regime: regimes[k%len(regimes)], qp: qps[k/len(regimes)], frames: frames, cohort: -1, seed: g.next()}
		if deal/nkeys%4 == 0 {
			p.drop = 0.08
		}
		l.sessions = append(l.sessions, p)
	}
	return l
}

// perm returns a seeded permutation of [0, n).
func (g *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func runFleet(o options) (*result, error) { return runServe(o, fleetLoad(o)) }
func runChurn(o options) (*result, error) { return runServe(o, churnLoad(o)) }

// runServe starts a server, replays the load against it from its own
// receivers, and reports what the viewers saw.
func runServe(o options, load serveLoad) (*result, error) {
	res := newResult()
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	cfg := serve.Config{
		Addr:          "127.0.0.1:0",
		MaxSessions:   2 * len(load.sessions),
		FrameInterval: load.interval,
		CohortWindow:  load.window,
	}
	var regimes []synth.Regime
	for _, p := range load.sessions {
		if !slices.Contains(regimes, p.regime) {
			regimes = append(regimes, p.regime)
		}
	}
	var srv *serve.Server
	setup, err := measureSetup(func(last bool) error {
		var sp *open
		if last {
			sp = tr.start("serve.new", ref{})
		}
		s, err := serve.New(cfg)
		sp.end()
		if err != nil {
			return err
		}
		warm := make([]sessionPlan, len(regimes))
		for i, r := range regimes {
			warm[i] = sessionPlan{regime: r, qp: 8, frames: warmFrames}
		}
		for _, r := range runSessions(s.Addr(), warm, nil) {
			if err := r.failure(); err != "" {
				s.Close()
				return fmt.Errorf("warm-up session: %s", err)
			}
		}
		if last {
			srv = s
			return nil
		}
		return s.Shutdown(context.Background())
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup.Seconds())

	reg := srv.Registry()
	var keys int
	stop := func() {}
	if o.traced {
		stop = sampleObs(tr, reg, time.Second, &keys)
	}
	var cost time.Duration
	if o.traced {
		cost = spanCost()
	}
	before := reg.Snapshot()
	p0 := sampleProc()
	sessions := runSessions(srv.Addr(), load.sessions, tr)
	use := since(p0)
	after := reg.Snapshot()
	stop()
	sp := tr.start("serve.shutdown", ref{})
	shutStart := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		res.fail("shutdown: %v", err)
	}
	shutdown := time.Since(shutStart)
	sp.end()

	checkSessions(res, load, sessions)
	v := viewers(load, sessions)
	interval := ms(load.interval)
	if q := percentile(v.genLate, 99); q.value > interval {
		res.fail("load generator ran late: hello p99 %.2f ms behind schedule exceeds one frame interval (%.0f ms); the harness, not the server, was measured",
			q.value, interval)
	}
	res.attempted, res.failed = v.requested, v.requested-v.delivered
	res.notes = append(res.notes, fmt.Sprintf("%d sessions, %d frames requested, %d delivered, %d rejected",
		len(sessions), v.requested, v.delivered, v.rejected))
	for _, r := range sessions {
		if r.rejected != "" {
			res.notes = append(res.notes, fmt.Sprintf("rejected at %v: %s", r.plan.at.Round(time.Millisecond), r.rejected))
		}
	}
	res.setPct("latency_p50_ms", percentile(v.late, 50))
	res.set("throughput_per_s", float64(v.delivered)/use.wall.Seconds())
	res.set("peak_rss_mb", use.peakMB)
	if !o.traced {
		return res, nil
	}

	inFrames := func(q pct) pct { q.value /= interval; return q }
	res.setPct("serve.admit_p50_frames", inFrames(percentile(v.admit, 50)))
	res.setPct("serve.admit_p90_frames", inFrames(percentile(v.admit, 90)))
	res.setPct("serve.first_frame_p50_frames", inFrames(percentile(v.firstFrame, 50)))
	res.setPct("client.e2e_p50_frames", inFrames(percentile(v.e2e, 50)))
	res.setPct("client.e2e_p99_frames", inFrames(percentile(v.e2e, 99)))
	res.setPct("client.late_p90_frames", inFrames(percentile(v.late, 90)))
	res.setPct("client.late_p99_frames", inFrames(percentile(v.late, 99)))
	res.setPct("client.gap_jitter_p99_frames", inFrames(percentile(v.jitter, 99)))
	res.setPct("gen.late_p90_frames", inFrames(percentile(v.genLate, 90)))

	d := func(key string) float64 { return after[key] - before[key] }
	// Histogram sums from count × mean; the mean is whole microseconds,
	// which is exact to well under 0.1% at millisecond latencies.
	sumMS := func(h string) float64 {
		return (after[h+".count"]*after[h+".mean_us"] - before[h+".count"]*before[h+".mean_us"]) / 1e3
	}
	encodes := d("server.encodes")
	encodeMS := sumMS("server.encode_latency")
	res.set("codec.encode_ms_per_frame", ratio(encodeMS, d("server.encode_latency.count")))
	// The farm's worker time spent encoding; the server exposes no
	// finer ledger of its own.
	res.set("codec.encode_share", ratio(encodeMS, ms(use.wall)*float64(runtime.GOMAXPROCS(0))))
	res.set("serve.encodes_per_s", encodes/use.wall.Seconds())
	res.set("serve.shared_frac", ratio(d("server.encode_shared_frames"), encodes+d("server.encode_shared_frames")))
	for _, c := range []string{"lineage_forks", "lineage_merges", "loadshed_deferrals", "loadshed_rejects", "sessions_rejected", "feedback_dropped"} {
		res.set("serve."+c, d("server."+c))
	}
	res.set("serve.dispatch_to_wire_mean_frames", ratio(sumMS("server.frame_latency"), d("server.frame_latency.count"))/interval)
	res.set("serve.recv_per_syscall", ratio(d("server.recv_datagrams"), d("server.recv_batches")))
	res.set("serve.send_per_syscall", ratio(d("server.send_datagrams"), d("server.send_batches")))
	res.set("serve.shard_rx_balance", after["server.shard_rx_balance"])
	res.set("serve.shutdown_frames", ms(shutdown)/interval)

	spans := tr.spans()
	res.spans = spans
	res.set("trace.coverage", newLedger(spans).coverage())
	snapshotStats(res, tr, reg, keys)
	procLayer(res, use, float64(v.delivered), len(spans), cost)
	return res, nil
}

// runSessions launches every plan at its scheduled offset from now on
// its own goroutine and socket, and waits for all of them. The
// receivers block in the runtime's network poller, so they cost no OS
// thread each.
func runSessions(server *net.UDPAddr, plans []sessionPlan, tr *tracer) []*sessionResult {
	out := make([]*sessionResult, len(plans))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, p := range plans {
		time.Sleep(time.Until(t0.Add(p.at)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = runSession(server, p, t0, tr)
		}()
	}
	wg.Wait()
	return out
}

// failure describes why a session did not complete, or "".
func (r *sessionResult) failure() string {
	switch {
	case r.rejected != "":
		return "rejected: " + r.rejected
	case r.err != nil:
		return r.err.Error()
	case !r.gotEnd:
		return "no End"
	}
	return ""
}

// viewerStats are the raw samples across sessions, in milliseconds.
type viewerStats struct {
	late, jitter, e2e    []float64
	admit, firstFrame    []float64
	genLate              []float64
	requested, delivered int64
	rejected             int
}

func viewers(load serveLoad, sessions []*sessionResult) viewerStats {
	var v viewerStats
	for _, r := range sessions {
		v.requested += int64(r.plan.frames)
		v.delivered += int64(r.delivered())
		v.genLate = append(v.genLate, ms(r.genLate))
		if r.rejected != "" {
			v.rejected++
			continue
		}
		if r.accept > 0 {
			v.admit = append(v.admit, ms(r.accept-r.hello))
		}
		if r.first > 0 {
			v.firstFrame = append(v.firstFrame, ms(r.first-r.accept))
		}
		for _, us := range r.e2eUS {
			v.e2e = append(v.e2e, us/1e3)
		}
		v.late = append(v.late, lateness(r.arrivals, load.interval)...)
		v.jitter = append(v.jitter, gapJitter(r.arrivals, load.interval)...)
	}
	return v
}

// lateness returns, for every frame that arrived, how far behind a
// perfectly paced playout it was, in ms: arrival minus (arrival of the
// first received frame f0 + (k - f0) × interval). Anchoring on the
// first frame that actually arrived, not on frame 0, keeps a lost
// frame 0 from shifting the whole session. The result is the playout
// buffer a viewer would need.
func lateness(arrivals []time.Duration, interval time.Duration) []float64 {
	f0 := slices.IndexFunc(arrivals, func(a time.Duration) bool { return a >= 0 })
	if f0 < 0 {
		return nil
	}
	var out []float64
	for k := f0; k < len(arrivals); k++ {
		if a := arrivals[k]; a >= 0 {
			out = append(out, ms(a-arrivals[f0]-time.Duration(k-f0)*interval))
		}
	}
	return out
}

// gapJitter returns |gap - frames between × interval| in ms for each
// pair of consecutively received frames.
func gapJitter(arrivals []time.Duration, interval time.Duration) []float64 {
	var out []float64
	prev := -1
	for k, a := range arrivals {
		if a < 0 {
			continue
		}
		if prev >= 0 {
			d := a - arrivals[prev] - time.Duration(k-prev)*interval
			out = append(out, ms(max(d, -d)))
		}
		prev = k
	}
	return out
}

// checkSessions applies the serving workloads' output checks: every
// admitted session ends with an End carrying the frame count it
// requested, and in a cohort workload every loss-free member of a
// cohort receives a byte-identical payload stream. Rejections are
// counted as failed frames, not as failed checks.
func checkSessions(res *result, load serveLoad, sessions []*sessionResult) {
	ref := map[int]uint64{}
	for i, r := range sessions {
		if r.rejected != "" {
			continue
		}
		if f := r.failure(); f != "" {
			res.fail("session %d: %s", i, f)
			continue
		}
		if r.endFrames != r.plan.frames {
			res.fail("session %d: End carries %d frames, %d requested", i, r.endFrames, r.plan.frames)
		}
		if !load.identity || r.plan.drop > 0 {
			continue
		}
		if d, ok := ref[r.plan.cohort]; !ok {
			ref[r.plan.cohort] = r.digest
		} else if d != r.digest {
			res.fail("session %d: payload stream differs from its cohort's other loss-free members", i)
		}
	}
}
