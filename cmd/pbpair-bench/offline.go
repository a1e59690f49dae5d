package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
	"time"

	"pbpair/internal/analytic"
	"pbpair/internal/codec"
	"pbpair/internal/core"
	"pbpair/internal/experiment"
	"pbpair/internal/network"
	"pbpair/internal/obs"
	"pbpair/internal/parallel"
	"pbpair/internal/synth"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 5

// measureSetup runs setup setupReps times and returns the median wall
// time. last is true on the final repetition, whose state the measured
// phase then uses.
func measureSetup(setup func(last bool) error) (time.Duration, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := setup(i == setupReps-1); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, float64(time.Since(start)))
	}
	return time.Duration(median(times)), nil
}

// closedLoop runs job back to back, starting another only while it is
// predicted (from the previous job's time) to end within budget; at
// least one job runs. It returns each job's wall time.
func closedLoop(budget time.Duration, job func()) []float64 {
	var times []float64
	start := time.Now()
	var last time.Duration
	for len(times) == 0 || time.Since(start)+last <= budget {
		t := time.Now()
		job()
		last = time.Since(t)
		times = append(times, ms(last))
	}
	return times
}

// sampleObs snapshots reg once per interval until the returned stop
// function is called (stop waits for the sampler to exit). Each
// snapshot is an obs.snapshot root span; keys receives the size of the
// latest snapshot.
func sampleObs(tr *tracer, reg *obs.Registry, interval time.Duration, keys *int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				sp := tr.start("obs.snapshot", ref{})
				n := len(reg.Snapshot())
				sp.end()
				*keys = n
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// snapshotStats sets obs.snapshot_ms (median snapshot time) and
// obs.keys, and takes one more snapshot when the run was too short for
// the sampler to fire.
func snapshotStats(res *result, tr *tracer, reg *obs.Registry, keys int) {
	var times []float64
	for _, s := range tr.spans() {
		if s.Name == "obs.snapshot" {
			times = append(times, float64(s.End-s.Start)/1e6)
		}
	}
	if len(times) == 0 {
		start := time.Now()
		keys = len(reg.Snapshot())
		times = append(times, ms(time.Since(start)))
	}
	res.setPct("obs.snapshot_ms", percentile(times, 50))
	res.set("obs.keys", float64(keys))
}

// digest is a short content hash of a result printed with %v (floats
// print in shortest round-trip form, so equal digests mean bit-equal
// results).
func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", v))))[:16]
}

// checkDigest compares a job's digest with the run's reference and,
// when one is committed for this seed and size, with the golden digest.
func checkDigest(res *result, what, got, ref, golden string) bool {
	switch {
	case got != ref:
		res.fail("%s digest %s differs from the run's first job %s", what, got, ref)
	case golden != "" && got != golden:
		res.fail("%s digest %s differs from the committed digest %s", what, got, golden)
	default:
		return true
	}
	return false
}

// procLayer sets the process metrics of a traced phase that completed
// ops operations, and the tracing overhead estimate: spans recorded ×
// the cost of recording one ÷ the phase's CPU time.
func procLayer(res *result, use procUse, ops float64, spans int, cost time.Duration) {
	res.set("proc.cpu_ms_per_op", ratio(ms(use.cpu), ops))
	res.set("proc.cpu_util", use.cpuUtil)
	res.set("proc.gc_cpu_frac", use.gcFrac)
	res.set("proc.alloc_mb_per_s", use.allocMBps)
	res.set("trace.spans", float64(spans))
	res.set("trace.overhead_frac", ratio(float64(spans)*float64(cost), float64(use.cpu)))
}

// encodeTally sums the energy-model operation counts of traced encodes.
type encodeTally struct {
	mu            sync.Mutex
	frames        int64
	sad, dct, vlc int64
	mc            int64
}

func (t *encodeTally) add(seq *codec.EncodedSequence) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := seq.Counters
	t.frames += c.Frames
	t.sad += c.SADPixelOps
	t.dct += c.DCTBlocks
	t.vlc += c.VLCBits
	t.mc += c.MCMBs
}

// set reports the per-frame operation counts and the encode time per
// frame from the codec.encode spans in l.
func (t *encodeTally) set(res *result, l ledger) {
	f := float64(t.frames)
	res.set("energy.sad_ops_per_frame", ratio(float64(t.sad), f))
	res.set("energy.dct_blocks_per_frame", ratio(float64(t.dct), f))
	res.set("energy.vlc_bits_per_frame", ratio(float64(t.vlc), f))
	res.set("energy.mc_mbs_per_frame", ratio(float64(t.mc), f))
	res.set("codec.encode_ms_per_frame", ratio(ms(l.total["codec.encode"]), f))
}

// batchTally sums the Monte-Carlo engine's work counters.
type batchTally struct {
	mu                          sync.Mutex
	trials                      int64
	laneFrames, decodes, parsed int64
	forks, merges               int64
	maxLive                     int
}

func (t *batchTally) add(r *experiment.MultiTrialResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trials += int64(r.Trials)
	b := r.Batch
	t.laneFrames += b.LaneFrames
	t.decodes += b.GroupDecodes
	t.parsed += b.ParsedFrames
	t.forks += b.Forks
	t.merges += b.Merges
	t.maxLive = max(t.maxLive, b.MaxLiveGroups)
}

// set reports the engine counters per job and its trial rate over the
// time spent inside SimBatch.
func (t *batchTally) set(res *result, l ledger, jobs int) {
	j := float64(jobs)
	res.set("experiment.simbatch_trials_per_s", ratio(float64(t.trials), l.total["experiment.simbatch"].Seconds()))
	res.set("experiment.lanes_per_decode", ratio(float64(t.laneFrames), float64(t.decodes)))
	res.set("experiment.group_decodes", ratio(float64(t.decodes), j))
	res.set("experiment.parsed_frames", ratio(float64(t.parsed), j))
	res.set("experiment.lineage_forks", ratio(float64(t.forks), j))
	res.set("experiment.lineage_merges", ratio(float64(t.merges), j))
	res.set("experiment.max_live_groups", float64(t.maxLive))
}

// ---- fig5 ----

// fig5Regimes are Figure 5's sequences, in experiment.Fig5Batch order.
var fig5Regimes = []synth.Regime{synth.RegimeForeman, synth.RegimeAkiyo, synth.RegimeGarden}

func fig5Config(o options) (experiment.Fig5Config, int) {
	cfg := experiment.Fig5Config{Frames: 60, PLR: 0.10, SearchRange: 15, Seed: o.seed}
	trials := 16
	if o.quick {
		cfg.Frames, cfg.ProbeFrames, cfg.SearchRange, trials = 6, 3, 2, 2
	}
	return cfg.WithDefaults(), trials
}

// runFig5 measures the researcher's time to Figure 5: back-to-back
// uncached Fig5Batch jobs.
func runFig5(o options) (*result, error) {
	cfg, trials := fig5Config(o)
	res := newResult()
	setup, err := measureSetup(func(last bool) error {
		// Source synthesis: render every frame of the three sequences.
		// The last repetition fills the process-wide memo the jobs read.
		for _, r := range fig5Regimes {
			src := synth.New(r)
			if last {
				src = synth.Shared(r)
			}
			for k := 0; k < cfg.Frames; k++ {
				src.Frame(k)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup.Seconds())
	golden := goldenDigest("fig5", o)

	var ref string
	job := func() {
		res.attempted++
		st, err := experiment.Fig5Batch(cfg, trials)
		if err != nil {
			res.failed++
			res.fail("Fig5Batch: %v", err)
			return
		}
		d := digest(st)
		if ref == "" {
			ref = d
			res.notes = append(res.notes, "fig5 digest "+d)
		}
		if !checkDigest(res, "fig5", d, ref, golden) {
			res.failed++
		}
	}
	if o.traced {
		job() // the untraced reference the traced jobs must reproduce
		return fig5Traced(o, cfg, trials, res, ref, golden), nil
	}

	p0 := sampleProc()
	times := closedLoop(o.seconds, job)
	use := since(p0)
	res.notes = append(res.notes, fmt.Sprintf("job ms %.0f", times))
	cells := float64(len(fig5Regimes) * 5) // five schemes per sequence
	res.setPct("latency_p50_ms", percentile(times, 50))
	res.set("throughput_per_s", cells*float64(trials)*float64(len(times))/use.wall.Seconds())
	res.set("peak_rss_mb", use.peakMB)
	return res, nil
}

// fig5Traced runs Figure 5 jobs recomposed one level down from the same
// public calls Fig5Batch makes — calibration with its probe encodes,
// one encode and one SimBatch per cell, fanned out over the same
// worker count — with a span around each call. Every job's digest must
// equal the untraced reference.
func fig5Traced(o options, cfg experiment.Fig5Config, trials int, res *result, ref, golden string) *result {
	tr := newTracer()
	cost := spanCost()
	reg := obs.NewRegistry()
	var keys int
	stop := sampleObs(tr, reg, time.Second, &keys)
	var enc encodeTally
	var sims batchTally
	p0 := sampleProc()
	jobs := 0
	closedLoop(o.seconds, func() {
		jobs++
		res.attempted++
		st, err := fig5Job(cfg, trials, tr, reg, &enc, &sims)
		if err != nil {
			res.failed++
			res.fail("traced fig5 job: %v", err)
			return
		}
		if !checkDigest(res, "traced fig5", digest(st), ref, golden) {
			res.failed++
		}
	})
	use := since(p0)
	stop()

	spans := tr.spans()
	res.spans = spans
	l := newLedger(spans)
	busy := float64(l.busy("experiment.fig5_job", "obs.snapshot"))
	res.set("trace.coverage", l.coverage())
	res.set("codec.encode_share", ratio(float64(l.self["codec.encode"]), busy))
	res.set("experiment.calibrate_share", ratio(float64(l.total["experiment.calibrate"]), busy))
	res.set("experiment.simbatch_share", ratio(float64(l.self["experiment.simbatch"]), busy))
	enc.set(res, l)
	sims.set(res, l, jobs)
	snapshotStats(res, tr, reg, keys)
	procLayer(res, use, float64(jobs), len(spans), cost)
	return res
}

// fig5Job is one traced Figure 5 job.
func fig5Job(cfg experiment.Fig5Config, trials int, tr *tracer, reg *obs.Registry, enc *encodeTally, sims *batchTally) ([]experiment.Fig5Stats, error) {
	job := tr.start("experiment.fig5_job", ref{})
	defer job.end()
	encode := func(parent ref, spec experiment.EncodeSpec) (*codec.EncodedSequence, error) {
		sp := tr.start("codec.encode", parent)
		seq, err := experiment.Encode(nil, spec)
		sp.end()
		if err == nil {
			enc.add(seq)
		}
		return seq, err
	}
	spec := func(r synth.Regime, frames int, s experiment.SchemeSpec) experiment.EncodeSpec {
		return experiment.EncodeSpec{Regime: r, Frames: frames, QP: cfg.QP, SearchRange: cfg.SearchRange, Scheme: s}
	}
	grid := func(r synth.Regime) (rows, cols int) {
		w, h := synth.Shared(r).Dims()
		return h / 16, w / 16
	}
	ths, err := parallel.Map(cfg.Workers, len(fig5Regimes), func(i int) (float64, error) {
		r := fig5Regimes[i]
		cal := tr.start("experiment.calibrate", job.ref())
		defer cal.end()
		rows, cols := grid(r)
		probe := func(s experiment.SchemeSpec) (int, error) {
			seq, err := encode(cal.ref(), spec(r, cfg.ProbeFrames, s))
			if err != nil {
				return 0, err
			}
			return seq.TotalBytes, nil
		}
		target, err := probe(experiment.SchemePGOP(3, cols))
		if err != nil {
			return 0, err
		}
		return experiment.CalibrateIntraTh(func(th float64) (int, error) {
			return probe(experiment.SchemePBPAIR(core.Config{Rows: rows, Cols: cols, IntraTh: th, PLR: cfg.PLR}))
		}, target, 10)
	})
	if err != nil {
		return nil, err
	}
	type cell struct {
		regime synth.Regime
		scheme experiment.SchemeSpec
	}
	var cells []cell
	for i, r := range fig5Regimes {
		rows, cols := grid(r)
		for _, s := range []experiment.SchemeSpec{
			experiment.SchemeNO(),
			experiment.SchemePBPAIR(core.Config{Rows: rows, Cols: cols, IntraTh: ths[i], PLR: cfg.PLR}),
			experiment.SchemePGOP(3, cols),
			experiment.SchemeGOP(3),
			experiment.SchemeAIR(24),
		} {
			cells = append(cells, cell{r, s})
		}
	}
	return parallel.Map(cfg.Workers, len(cells), func(i int) (experiment.Fig5Stats, error) {
		c := cells[i]
		seq, err := encode(job.ref(), spec(c.regime, cfg.Frames, c.scheme))
		if err != nil {
			return experiment.Fig5Stats{}, err
		}
		src := synth.Shared(c.regime)
		sp := tr.start("experiment.simbatch", job.ref())
		mtr, err := experiment.SimBatch(seq, src,
			experiment.SimSpec{Name: fmt.Sprintf("fig5/%s/%s", src.Name(), c.scheme.Key()), Profile: cfg.Profile},
			experiment.BatchSpec{Trials: trials, Seed: cfg.Seed + uint64(c.regime), LossRate: cfg.PLR, Workers: 1, Obs: reg})
		sp.end()
		if err != nil {
			return experiment.Fig5Stats{}, err
		}
		sims.add(mtr)
		return experiment.Fig5Stats{
			Sequence: src.Name(), Scheme: mtr.Scheme,
			PSNRMean: mtr.PSNR.Mean, PSNRStd: mtr.PSNR.Std, PSNRCI95: mtr.PSNR.CI95,
			BadPixMean: mtr.BadPixels.Mean, BadPixStd: mtr.BadPixels.Std, BadPixCI95: mtr.BadPixels.CI95,
			FileKBMean:  float64(mtr.TotalBytes) / 1024,
			EnergyJMean: mtr.Joules,
			Seeds:       trials,
		}, nil
	})
}

// ---- sweep ----

// sweepGE is the burst channel of the sweep's second loss process.
var sweepGE = network.GEConfig{PGoodToBad: 0.04, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.7}

// sweepLoss is the sweep's i.i.d. loss rate.
const sweepLoss = 0.10

// maxZ is the largest accepted distance, in standard errors of the
// Monte-Carlo mean, between the Monte-Carlo and closed-form expected
// packets lost.
const maxZ = 5

type sweepSize struct{ frames, searchRange, trials, points int }

func sweepSizes(o options) sweepSize {
	if o.quick {
		return sweepSize{frames: 6, searchRange: 2, trials: 8, points: 8}
	}
	return sweepSize{frames: 60, searchRange: 7, trials: 128, points: 1024}
}

// sweepCell is one encoded PBPAIR operating point with its analytic
// model.
type sweepCell struct {
	regime synth.Regime
	th     float64
	seq    *codec.EncodedSequence
	model  *analytic.Model
}

// sweepCells builds the four operating points: foreman and garden at
// Intra_Th 0.6 and 0.9. Encode and extraction are the set-up.
func sweepCells(sz sweepSize, tr *tracer, enc *encodeTally) ([]sweepCell, error) {
	root := tr.start("experiment.sweep_setup", ref{})
	defer root.end()
	var cells []sweepCell
	for _, r := range []synth.Regime{synth.RegimeForeman, synth.RegimeGarden} {
		src := synth.Shared(r)
		w, h := src.Dims()
		for _, th := range []float64{0.6, 0.9} {
			sp := tr.start("codec.encode", root.ref())
			seq, err := experiment.Encode(nil, experiment.EncodeSpec{
				Regime: r, Frames: sz.frames, SearchRange: sz.searchRange,
				Scheme: experiment.SchemePBPAIR(core.Config{Rows: h / 16, Cols: w / 16, IntraTh: th, PLR: sweepLoss}),
			})
			sp.end()
			if err != nil {
				return nil, err
			}
			if enc != nil {
				enc.add(seq)
			}
			sp = tr.start("analytic.extract", root.ref())
			m, err := experiment.ExtractModel(seq, src, experiment.AnalyticSpec{})
			sp.end()
			if err != nil {
				return nil, err
			}
			cells = append(cells, sweepCell{regime: r, th: th, seq: seq, model: m})
		}
	}
	return cells, nil
}

// sweepPass runs sweep jobs over the set-up's cells and accumulates
// what they did.
type sweepPass struct {
	sz     sweepSize
	seed   uint64
	cells  []sweepCell
	tr     *tracer
	reg    *obs.Registry
	sims   *batchTally
	maxZ   float64
	trials int64
}

// run is one sweep job: Monte-Carlo at i.i.d. and burst loss on every
// cell, then the closed-form engine at the same two loss processes and
// on a dense i.i.d. loss axis. Cells fan out over the default worker
// count with each cell's engines serial inside its worker, as
// Fig5Batch runs its cells. It returns the job's result digest.
func (p *sweepPass) run(res *result) (string, error) {
	job := p.tr.start("experiment.sweep_job", ref{})
	defer job.end()
	specs := []experiment.AnalyticSpec{{LossRate: sweepLoss}, {GE: &sweepGE}}
	for k := 0; k < p.sz.points; k++ {
		specs = append(specs, experiment.AnalyticSpec{LossRate: 0.5 * float64(k) / float64(p.sz.points)})
	}
	type cellOut struct {
		mcs [2]*experiment.MultiTrialResult
		ans []*experiment.AnalyticResult
	}
	outs, err := parallel.Map(0, len(p.cells), func(i int) (cellOut, error) {
		c := p.cells[i]
		src := synth.Shared(c.regime)
		var co cellOut
		for k, b := range []experiment.BatchSpec{
			{Trials: p.sz.trials, Seed: network.LaneSeed(p.seed, 2*i+1), LossRate: sweepLoss, Workers: 1, Obs: p.reg},
			{Trials: p.sz.trials, Seed: network.LaneSeed(p.seed, 2*i+2), GE: &sweepGE, Workers: 1, Obs: p.reg},
		} {
			sp := p.tr.start("experiment.simbatch", job.ref())
			r, err := experiment.SimBatch(c.seq, src, experiment.SimSpec{Name: c.name()}, b)
			sp.end()
			if err != nil {
				return co, err
			}
			if p.sims != nil {
				p.sims.add(r)
			}
			co.mcs[k] = r
		}
		sp := p.tr.start("analytic.evaluate", job.ref())
		defer sp.end()
		for _, spec := range specs {
			a, err := experiment.AnalyzeModel(c.model, spec)
			if err != nil {
				return co, err
			}
			co.ans = append(co.ans, a)
		}
		return co, nil
	})
	if err != nil {
		return "", err
	}
	var out []any
	for i, co := range outs {
		var curve [2]float64
		for _, a := range co.ans[2:] {
			curve[0] += a.ExpPacketsLost
			curve[1] += a.ExpBadPixTotal
		}
		for k, mc := range co.mcs {
			p.trials += int64(mc.Trials)
			an := co.ans[k]
			z := math.Abs(mc.PacketsLost.Mean-an.ExpPacketsLost) / mc.PacketsLost.StdErr()
			if mc.PacketsLost.Mean == an.ExpPacketsLost {
				z = 0
			}
			p.maxZ = max(p.maxZ, z)
			if !(z <= maxZ) {
				res.fail("sweep %s loss %d: Monte-Carlo %.4f vs closed-form %.4f packets lost is %.2f standard errors apart",
					p.cells[i].name(), k, mc.PacketsLost.Mean, an.ExpPacketsLost, z)
			}
			out = append(out, mc.PSNR.Mean, mc.BadPixels.Mean, mc.PacketsLost.Mean, mc.PacketsLost.Std,
				an.ExpPacketsLost, an.ExpBadPixTotal)
		}
		out = append(out, curve)
	}
	return digest(out), nil
}

func (c sweepCell) name() string { return fmt.Sprintf("sweep/%s/th%g", c.regime, c.th) }

// runSweep measures the Monte-Carlo and closed-form engines on
// pre-encoded sequences: no encode runs in the measured phase.
func runSweep(o options) (*result, error) {
	sz := sweepSizes(o)
	res := newResult()
	var tr *tracer
	var enc encodeTally
	if o.traced {
		tr = newTracer()
	}
	var cells []sweepCell
	setup, err := measureSetup(func(last bool) error {
		var t *tracer
		var e *encodeTally
		if last {
			t, e = tr, &enc
		}
		var err error
		cells, err = sweepCells(sz, t, e)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup.Seconds())
	golden := goldenDigest("sweep", o)

	pass := &sweepPass{sz: sz, seed: o.seed, cells: cells}
	var ref string
	job := func() {
		res.attempted++
		d, err := pass.run(res)
		if err != nil {
			res.failed++
			res.fail("sweep job: %v", err)
			return
		}
		if ref == "" {
			ref = d
			res.notes = append(res.notes, "sweep digest "+d)
		}
		if !checkDigest(res, "sweep", d, ref, golden) {
			res.failed++
		}
	}
	if o.traced {
		job() // untraced reference
		return sweepTraced(o, pass, tr, &enc, job, res), nil
	}

	p0 := sampleProc()
	times := closedLoop(o.seconds, job)
	use := since(p0)
	res.notes = append(res.notes, fmt.Sprintf("job ms %.0f", times),
		fmt.Sprintf("sweep max |MC - analytic| = %.3f standard errors", pass.maxZ))
	res.setPct("latency_p50_ms", percentile(times, 50))
	res.set("throughput_per_s", float64(pass.trials)/use.wall.Seconds())
	res.set("peak_rss_mb", use.peakMB)
	return res, nil
}

func sweepTraced(o options, pass *sweepPass, tr *tracer, enc *encodeTally, job func(), res *result) *result {
	cost := spanCost()
	pass.tr, pass.reg, pass.sims = tr, obs.NewRegistry(), &batchTally{}
	var keys int
	stop := sampleObs(tr, pass.reg, time.Second, &keys)
	p0 := sampleProc()
	times := closedLoop(o.seconds, job)
	use := since(p0)
	stop()

	spans := tr.spans()
	res.spans = spans
	setupSpans, phase := splitTrace(spans, "experiment.sweep_setup")
	ls, l := newLedger(setupSpans), newLedger(phase)
	busy := float64(l.busy("experiment.sweep_job", "obs.snapshot"))
	res.set("trace.coverage", l.coverage())
	res.set("experiment.simbatch_share", ratio(float64(l.self["experiment.simbatch"]), busy))
	res.set("analytic.share", ratio(float64(l.self["analytic.evaluate"]), busy))
	points := float64(len(times) * len(pass.cells) * (pass.sz.points + 2))
	res.set("analytic.eval_points_per_s", ratio(points, l.total["analytic.evaluate"].Seconds()))
	res.set("analytic.extract_frames_per_s",
		ratio(float64(len(pass.cells)*pass.sz.frames), ls.total["analytic.extract"].Seconds()))
	enc.set(res, ls)
	pass.sims.set(res, l, len(times))
	snapshotStats(res, tr, pass.reg, keys)
	procLayer(res, use, float64(len(times)), len(spans), cost)
	return res
}

// splitTrace separates the traces rooted at spans named root from the
// rest.
func splitTrace(spans []span, root string) (in, out []span) {
	roots := map[uint64]bool{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			roots[s.ID] = true
		}
	}
	for _, s := range spans {
		if roots[s.Trace] {
			in = append(in, s)
		} else {
			out = append(out, s)
		}
	}
	return in, out
}
