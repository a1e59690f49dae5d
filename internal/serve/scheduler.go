package serve

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pbpair/internal/adapt"
	"pbpair/internal/network"
	"pbpair/internal/obs"
	"pbpair/internal/parallel"
)

// encodeJob is one unit of farm work: encode frame `frame` of lineage
// `lin` with the knobs its members agreed on, packetise and protect
// it. The scheduler fills the top half, a farm worker the bottom.
type encodeJob struct {
	lin   *lineage
	frame int
	knob  lineageKnobs
	start time.Time // dispatch stamp; end-to-end frame latency baseline

	pkts        []network.Packet
	intraMBs    int
	frameEnergy float64
	encodeTime  time.Duration
	err         error
}

// scheduler is the serving layer's single control goroutine: it owns
// every lineage and every session's control state, so no lock guards
// any of it. Work arrives on channels (admissions from the read loop,
// completed jobs from the farm, End confirmations from the sender,
// wake pokes) and leaves as encode jobs on a bounded queue.
//
// Load shedding: pacing slip is the overload signal. When a dispatch
// pass cannot enqueue every due lineage, the newest lineages (largest
// oldest-member id) wait first. A waiting lineage still inside its
// frame slot just goes out on the next pass (a farm result triggers
// it); one that has missed a whole slot is counted as deferred and
// flags the server overloaded, which makes admission reject new hellos
// until the farm catches up. Unpaced, every due lineage has missed its
// slot, so a full backlog alone is overload. Deferral costs a session
// nothing but added frame latency — and if its queue then overflows,
// drop-oldest eviction surfaces as wire loss, which is exactly the
// signal the §3.2 loop is built to absorb.
type scheduler struct {
	srv *Server

	admit chan *session
	wake  chan struct{}
	// jobs is sharded per worker: each worker owns one queue, and
	// dispatch assigns a lineage to the queue at lin.home — the
	// founder's receive-shard index — modulo the worker count (sticky,
	// so a lineage's cache-warm encode state keeps landing on the same
	// core, and aligned with the shard whose socket and sender carry
	// the founder's datagrams), spilling to the next queues when the
	// sticky one is full. Past GOMAXPROCS=1 this partitions the
	// dispatch fan-in instead of funnelling every worker through one
	// contended channel.
	jobs    []chan *encodeJob
	results chan *encodeJob

	qctl       *adapt.QualityController
	lineages   []*lineage
	pendingEnd map[uint32]*session // queue closed, awaiting sender End
	endScratch []*session          // scratch for sender.takeEnded
	nextLinID  uint32
	overloaded bool

	// orderDirty elides the dispatch-order sort: lineages are sorted by
	// oldest member only after membership or the lineage set changed,
	// not on every pass (at thousands of paced sessions, most passes
	// change nothing).
	orderDirty bool
	// cohortGauges tracks the per-cohort shared-fraction gauges
	// ("server.cohort.<name>.shared_fraction"); entries are removed
	// from the registry when their cohort has no members left.
	cohortGauges map[cohortKey]*obs.Gauge
	cohortCounts map[cohortKey][2]int // scratch: members, lineages
}

func newScheduler(srv *Server, qctl *adapt.QualityController) *scheduler {
	// FarmBacklog stays the total job bound; each worker queue gets an
	// equal share (rounded up so every queue can hold at least one job).
	perQueue := (srv.cfg.FarmBacklog + srv.cfg.FarmWorkers - 1) / srv.cfg.FarmWorkers
	if perQueue < 1 {
		perQueue = 1
	}
	jobs := make([]chan *encodeJob, srv.cfg.FarmWorkers)
	for i := range jobs {
		jobs[i] = make(chan *encodeJob, perQueue)
	}
	return &scheduler{
		srv:          srv,
		admit:        make(chan *session, 256),
		wake:         make(chan struct{}, 1),
		jobs:         jobs,
		results:      make(chan *encodeJob, srv.cfg.FarmBacklog+srv.cfg.FarmWorkers),
		qctl:         qctl,
		pendingEnd:   make(map[uint32]*session),
		cohortGauges: make(map[cohortKey]*obs.Gauge),
		cohortCounts: make(map[cohortKey][2]int),
	}
}

// poke nudges the scheduler without blocking (coalescing is fine: one
// pass services everything pending).
func (sc *scheduler) poke() {
	select {
	case sc.wake <- struct{}{}:
	default:
	}
}

// run is the scheduler goroutine body.
func (sc *scheduler) run(ctx context.Context) {
	defer sc.srv.farmWG.Done()
	for {
		var timerC <-chan time.Time
		var timer *time.Timer
		if d, ok := sc.nextDue(); ok {
			timer = time.NewTimer(d)
			timerC = timer.C
		}
		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			sc.hardStop(ctx)
			return
		case s := <-sc.admit:
			sc.place(s, time.Now())
		case job := <-sc.results:
			sc.complete(job, time.Now())
		case <-sc.wake:
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
		// Fold any burst into this pass before dispatching.
	drain:
		for {
			select {
			case s := <-sc.admit:
				sc.place(s, time.Now())
			case job := <-sc.results:
				sc.complete(job, time.Now())
			default:
				break drain
			}
		}
		// Collect every shard sender's End confirmations (a sender pokes
		// wake when new ones land, so none linger past the pass they
		// arrived in).
		for _, sh := range sc.srv.shards {
			sc.endScratch = sh.snd.takeEnded(sc.endScratch[:0])
			for _, m := range sc.endScratch {
				sc.finalize(m, nil)
			}
		}
		clear(sc.endScratch)
		now := time.Now()
		sc.reap(now)
		sc.dispatch(now)
	}
}

// nextDue returns how long until the earliest lineage becomes
// dispatchable, clamped to >= 1ms so a deferred-due lineage cannot
// spin the loop.
func (sc *scheduler) nextDue() (time.Duration, bool) {
	var earliest time.Time
	for _, l := range sc.lineages {
		if l.inflight || len(l.members) == 0 {
			continue
		}
		if earliest.IsZero() || l.due.Before(earliest) {
			earliest = l.due
		}
	}
	if earliest.IsZero() {
		return 0, false
	}
	d := time.Until(earliest)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d, true
}

// place admits a session into the farm: controller state, metrics, and
// a lineage — joining an existing frame-0 lineage of its cohort when
// one exists (encode sharing), otherwise founding a new one.
func (sc *scheduler) place(s *session, now time.Time) {
	cfg := &sc.srv.cfg
	var err error
	if s.est, err = adapt.NewPLREstimator(cfg.EstimatorWeight); err != nil {
		sc.admitFailed(s, err)
		return
	}
	if cfg.EnergyBudget > 0 {
		if s.ectl, err = adapt.NewEnergyController(cfg.EnergyBudget, 0, 0); err != nil {
			sc.admitFailed(s, err)
			return
		}
	}
	s.lastFeedback = now
	s.deadline = now.Add(cfg.SessionTimeout)
	s.sum = SessionSummary{ID: s.id, Client: s.client.String(), FramesRequested: s.req.Frames}
	s.registerMetrics(sc.srv.reg)

	key := keyOf(s.req)
	for _, l := range sc.lineages {
		// Joinable while still at frame 0: every frame-0 dispatch uses
		// knobs (0, 0) — no feedback can have arrived yet — so a joiner
		// is bit-identical to the founders by construction.
		if l.key == key && l.frame == 0 {
			l.members = append(l.members, s)
			s.lin = l
			sc.orderDirty = true
			sc.srv.shards[shardIdx(s)].snd.enroll(s)
			return
		}
	}
	l, err := sc.newLineage(key, s, now)
	if err != nil {
		sc.admitFailed(s, err)
		return
	}
	sc.lineages = append(sc.lineages, l)
	sc.orderDirty = true
	sc.srv.mLineages.Set(float64(len(sc.lineages)))
	sc.srv.shards[shardIdx(s)].snd.enroll(s)
}

// admitFailed finishes a session that never got encode state (the
// accept was already sent, so the client is left to its idle timeout —
// this path needs a construction error, which no valid hello produces).
func (sc *scheduler) admitFailed(s *session, err error) {
	s.sum.Err = err.Error()
	s.finished = true
	sc.srv.finishSession(s)
}

// newLineage builds the encode state for a founding member.
func (sc *scheduler) newLineage(key cohortKey, s *session, now time.Time) (*lineage, error) {
	cfg := &sc.srv.cfg
	src := sc.srv.sourceFor(key.regime)
	w, h := src.Dims()
	planner, err := newPlanner(w, h)
	if err != nil {
		return nil, err
	}
	sc.nextLinID++
	l := &lineage{
		id:      sc.nextLinID,
		key:     key,
		members: []*session{s},
		home:    shardIdx(s),
		// The cohort window holds frame 0 back; its end is the first
		// due time, where the capture grid is anchored.
		due:     now.Add(cfg.CohortWindow),
		src:     src,
		planner: planner,
		pktz:    network.NewPacketizer(cfg.MTU),
	}
	if l.enc, err = newLineageEncoder(cfg, key, w, h, planner, &l.counters); err != nil {
		return nil, err
	}
	if key.fec > 0 {
		if l.fec, err = network.NewFECEncoder(key.fec); err != nil {
			return nil, err
		}
	}
	s.lin = l
	return l, nil
}

// reap handles graceful stops, session deadlines and feedback
// timeouts. Runs every pass so a bye or Shutdown acts promptly even on
// a lineage that is not due.
func (sc *scheduler) reap(now time.Time) {
	cfg := &sc.srv.cfg
	for _, l := range append([]*lineage(nil), sc.lineages...) {
		for _, m := range append([]*session(nil), l.members...) {
			if m.closing {
				continue
			}
			if m.stopReq.Load() {
				sc.closeMember(m)
				continue
			}
			if now.After(m.deadline) {
				m.sum.Err = "serve: session deadline exceeded"
				sc.closeMember(m)
				continue
			}
			if cfg.ReportTimeout > 0 && m.req.ReportEvery > 0 {
				m.drainFeedback(now)
				if now.Sub(m.lastFeedback) > cfg.ReportTimeout {
					m.sum.Err = fmt.Sprintf("serve: no receiver feedback for %v", cfg.ReportTimeout)
					sc.closeMember(m)
				}
			}
		}
	}
}

// dispatch runs one scheduling pass: oldest-member-first over due
// lineages, partitioning each by the knobs its members want (forking
// divergers) and handing encode jobs to the farm until the backlog is
// full. Due lineages left over wait for the next pass; those a whole
// frame slot behind their grid are load-shed: deferred, counted, and —
// via the overloaded flag — admission-gated.
func (sc *scheduler) dispatch(now time.Time) {
	if sc.orderDirty {
		sort.Slice(sc.lineages, func(i, j int) bool {
			return sc.lineages[i].oldestMember() < sc.lineages[j].oldestMember()
		})
		sc.orderDirty = false
		sc.updateCohortShared()
	}
	interval := sc.srv.cfg.FrameInterval
	full, overloaded := false, false
	// Partitioning may append forked lineages; they inherit the parent's
	// due time and are picked up by the index loop.
	for i := 0; i < len(sc.lineages); i++ {
		l := sc.lineages[i]
		if l.inflight || len(l.members) == 0 || now.Before(l.due) || sc.awaitsMerge(l) {
			continue
		}
		if !full {
			knob, ok := sc.partition(l, now)
			if !ok {
				continue // lineage dissolved (fork error path)
			}
			job := &encodeJob{lin: l, frame: l.frame, knob: knob, start: now}
			if sc.enqueue(l, job) {
				if interval > 0 {
					sc.srv.mDispatchSlip.Observe(now.Sub(l.due))
				}
				next, reanchored := advanceDue(l.due, now, interval, !l.started)
				if reanchored {
					sc.srv.mReanchors.Add(1)
				}
				l.due = next
				l.inflight = true
				l.started = true
				continue
			}
			full = true
		}
		if slipped(l.due, now, interval) {
			overloaded = true
			sc.srv.mShedDeferrals.Add(1)
		}
	}
	depth := 0
	for _, q := range sc.jobs {
		depth += len(q)
	}
	sc.srv.mFarmDepth.Set(float64(depth))
	sc.setOverloaded(overloaded)
}

// awaitsMerge reports whether l should hold its dispatch for a
// cohort-mate still encoding the frame l has just finished, when both
// are quiescent and so could re-merge. On the capture grid a fork and
// its parent fall due together; if l went ahead whenever the mate's
// encode overran the slot, the mate would trail it by one frame for
// good and tryMerge would never see them at the same frame. The mate's
// result triggers the next pass, which merges or releases l.
func (sc *scheduler) awaitsMerge(l *lineage) bool {
	if sc.srv.cfg.DisableMerge || !l.started {
		return false
	}
	for _, p := range sc.lineages {
		if p.inflight && p.frame+1 == l.frame && p.key == l.key && len(p.members) > 0 {
			return sc.quiescent(l) && sc.quiescent(p)
		}
	}
	return false
}

// enqueue offers a job to the lineage's sticky worker queue first, then
// spills to the others; false means every queue is full (overload).
func (sc *scheduler) enqueue(l *lineage, job *encodeJob) bool {
	qi := l.home % len(sc.jobs)
	for k := 0; k < len(sc.jobs); k++ {
		select {
		case sc.jobs[(qi+k)%len(sc.jobs)] <- job:
			return true
		default:
		}
	}
	return false
}

// updateCohortShared refreshes the per-cohort shared-fraction gauges:
// 1 − lineages/members per cohort (1 would mean every member rides one
// lineage for free; 0 means every member encodes privately). Gauges of
// emptied cohorts are unregistered so the registry tracks the live set.
func (sc *scheduler) updateCohortShared() {
	counts := sc.cohortCounts
	clear(counts)
	for _, l := range sc.lineages {
		if len(l.members) == 0 {
			continue
		}
		c := counts[l.key]
		c[0] += len(l.members)
		c[1]++
		counts[l.key] = c
	}
	for key := range sc.cohortGauges {
		if _, live := counts[key]; !live {
			sc.srv.reg.RemovePrefix("server.cohort." + key.name() + ".")
			delete(sc.cohortGauges, key)
		}
	}
	for key, c := range counts {
		g := sc.cohortGauges[key]
		if g == nil {
			g = sc.srv.reg.Gauge("server.cohort." + key.name() + ".shared_fraction")
			sc.cohortGauges[key] = g
		}
		g.Set(1 - float64(c[1])/float64(c[0]))
	}
}

func (sc *scheduler) setOverloaded(v bool) {
	if v == sc.overloaded {
		return
	}
	sc.overloaded = v
	sc.srv.overloaded.Store(v)
	if v {
		sc.srv.mOverloaded.Set(1)
	} else {
		sc.srv.mOverloaded.Set(0)
	}
}

// partition drains every member's feedback, groups members by the
// knobs they want applied next, forks every group that diverged from
// the one holding the oldest member, and returns the knobs for the
// lineage l itself. Forked lineages keep l's due time, so divergence
// never costs a frame of pacing.
func (sc *scheduler) partition(l *lineage, now time.Time) (lineageKnobs, bool) {
	type group struct {
		knob    lineageKnobs
		members []*session
	}
	groups := make(map[[2]uint64]*group)
	var order [][2]uint64
	for _, m := range l.members {
		m.drainFeedback(now)
		k := m.knobs(sc.qctl, sc.srv.cfg.AlphaQuantum)
		bits := k.bits()
		g := groups[bits]
		if g == nil {
			g = &group{knob: k}
			groups[bits] = g
			order = append(order, bits)
		}
		g.members = append(g.members, m)
	}
	// The group holding the oldest member keeps the parent lineage (and
	// with it the parent's scheduling priority).
	keeper := order[0]
	oldest := ^uint32(0)
	for _, bits := range order {
		for _, m := range groups[bits].members {
			if m.id < oldest {
				oldest = m.id
				keeper = bits
			}
		}
	}
	for _, bits := range order {
		if bits == keeper {
			continue
		}
		g := groups[bits]
		sc.nextLinID++
		nl, err := l.fork(sc.nextLinID, g.members)
		if err != nil {
			for _, m := range g.members {
				m.sum.Err = err.Error()
				sc.closeMember(m)
			}
			continue
		}
		sc.lineages = append(sc.lineages, nl)
		sc.orderDirty = true
		sc.srv.mForks.Add(1)
	}
	sc.srv.mLineages.Set(float64(len(sc.lineages)))
	if len(l.members) == 0 {
		sc.dropLineage(l)
		return lineageKnobs{}, false
	}
	return groups[keeper].knob, true
}

// complete fans a finished encode out to every member of its lineage,
// advances their books, and retires members that reached their
// requested frame count.
func (sc *scheduler) complete(job *encodeJob, now time.Time) {
	l := job.lin
	l.inflight = false
	if job.err != nil {
		for _, m := range append([]*session(nil), l.members...) {
			m.sum.Err = job.err.Error()
			sc.closeMember(m)
		}
		sc.dropLineage(l)
		return
	}
	l.frame = job.frame + 1
	profile := sc.srv.cfg.Profile
	totalJoules := profile.Joules(l.counters)
	fanout := 0
	for _, m := range l.members {
		if !m.closing {
			fanout++
		}
	}
	// Fan the frame out to every live member. Members are independent
	// (each owns its queue, books and metrics), so a mega-lineage's
	// fanout parallelises across cores; small lineages stay serial —
	// parallel.ForEach degrades to an inline loop at workers==1, and
	// below the threshold the goroutine round-trip costs more than the
	// bookkeeping it would spread out.
	members := l.members
	fan := func(i int) {
		m := members[i]
		if m.closing {
			return
		}
		sc.fanoutMember(m, job, totalJoules)
	}
	if fanout >= parallelFanoutMin {
		parallel.ForEach(0, len(members), fan)
	} else {
		for i := range members {
			fan(i)
		}
	}
	sc.srv.mEncodes.Add(1)
	if fanout > 1 {
		sc.srv.mSharedFrames.Add(int64(fanout - 1))
	}
	sc.srv.mEncodeLat.Observe(job.encodeTime)
	sc.srv.pokeSenders()

	for _, m := range append([]*session(nil), l.members...) {
		if !m.closing && m.sum.FramesEncoded >= m.req.Frames {
			sc.closeMember(m)
		}
	}
	if len(l.members) == 0 {
		sc.dropLineage(l)
		return
	}
	sc.tryMerge(l)
}

// parallelFanoutMin is the member count above which complete() fans a
// frame out with parallel workers instead of a serial loop.
const parallelFanoutMin = 64

// fanoutMember delivers one encoded frame to one member: queue push,
// summary books, trace point, per-session metrics. Safe to run for
// different members concurrently — every touched field belongs to m
// alone (the frameQueue's single-producer contract holds per queue:
// the scheduler is the only producer, whether it pushes inline or via
// the joined fanout workers).
func (sc *scheduler) fanoutMember(m *session, job *encodeJob, totalJoules float64) {
	m.queue.push(queuedFrame{frame: job.frame, pkts: job.pkts, enqueued: job.start})
	m.framesEncoded.Store(int64(job.frame + 1))
	m.sum.FramesEncoded = job.frame + 1
	m.sum.IntraMBs += int64(job.intraMBs)
	m.sum.FinalAlpha = job.knob.plr
	m.sum.FinalIntraTh = job.knob.th
	m.sum.EnergyJoules = totalJoules
	m.sum.Trace = append(m.sum.Trace, TracePoint{
		Frame: job.frame, Alpha: job.knob.plr, IntraTh: job.knob.th, IntraMBs: job.intraMBs,
	})
	if m.ectl != nil {
		m.ectl.Observe(job.frameEnergy)
	}
	m.mFrames.Add(1)
	m.mIntra.Add(int64(job.intraMBs))
	m.mAlpha.Set(job.knob.plr)
	m.mTh.Set(job.knob.th)
	m.mDepth.Set(float64(m.queue.depth()))
	m.mJoules.Set(totalJoules)
	m.mEncode.Observe(job.encodeTime)
	if d := m.queue.droppedFrames() - m.sum.QueueDroppedFrames; d > 0 {
		m.mQueueDrop.Add(d)
		m.sum.QueueDroppedFrames += d
	}
}

// tryMerge folds lineage l back into a cohort-mate when their streams
// have provably reconverged — the inverse of the partition fork. The
// preconditions mirror the correctness argument in lineage.go: both
// lineages quiescent (every member's applied knobs exactly (0, 0), so
// divergent planner σ histories cannot reach the bitstream), neither
// inflight, and bit-identical encoder + packetiser state. Cheap
// filters run first; the reference-frame digest and deep comparison
// only happen for genuine reconvergence candidates. At most one merge
// per call — the next completion retries, so chains of forks still
// collapse, just one completion apart.
func (sc *scheduler) tryMerge(l *lineage) {
	if sc.srv.cfg.DisableMerge || l.inflight || !l.started || len(l.members) == 0 {
		return
	}
	if !sc.quiescent(l) {
		return
	}
	for _, p := range sc.lineages {
		if p == l || p.inflight || !p.started || len(p.members) == 0 || p.key != l.key {
			continue
		}
		if !sc.quiescent(p) || !l.stateMatches(p) {
			continue
		}
		// Fold the younger lineage into the older so the merged lineage
		// keeps the older scheduling priority (and the members that have
		// been waiting longest keep their place in line).
		keep, drop := l, p
		if p.oldestMember() < l.oldestMember() {
			keep, drop = p, l
		}
		for _, m := range drop.members {
			m.lin = keep
		}
		keep.members = append(keep.members, drop.members...)
		drop.members = nil
		keep.due = mergedDue(keep.due, drop.due)
		sc.dropLineage(drop)
		sc.srv.mMerges.Add(1)
		sc.srv.cfg.logf("lineage %d: merged into lineage %d at frame %d (%d members)",
			drop.id, keep.id, keep.frame, len(keep.members))
		return
	}
}

// quiescent reports whether every member of l currently wants the
// frame-0 operating point — applied knobs exactly (0, 0).
func (sc *scheduler) quiescent(l *lineage) bool {
	for _, m := range l.members {
		if m.closing {
			continue
		}
		if m.knobs(sc.qctl, sc.srv.cfg.AlphaQuantum).bits() != [2]uint64{} {
			return false
		}
	}
	return true
}

// closeMember ends a member's production: its queue closes (the sender
// drains what is queued and announces the end of the stream) and it
// leaves its lineage. Finalisation waits for the sender's End
// confirmation so packet/byte counts are complete.
func (sc *scheduler) closeMember(m *session) {
	if m.closing || m.finished {
		return
	}
	m.closing = true
	m.queue.close()
	if m.lin != nil {
		m.lin.removeMember(m)
		sc.orderDirty = true
		if len(m.lin.members) == 0 && !m.lin.inflight {
			sc.dropLineage(m.lin)
		}
		m.lin = nil
	}
	sc.pendingEnd[m.id] = m
	sc.srv.pokeSenders()
}

func (sc *scheduler) dropLineage(l *lineage) {
	for i, x := range sc.lineages {
		if x == l {
			sc.lineages = append(sc.lineages[:i], sc.lineages[i+1:]...)
			break
		}
	}
	sc.orderDirty = true
	sc.srv.mLineages.Set(float64(len(sc.lineages)))
}

// finalize records a session's summary once its End is on the wire (or
// once a hard stop abandons it, err non-nil).
func (sc *scheduler) finalize(m *session, err error) {
	if m.finished {
		return
	}
	m.finished = true
	delete(sc.pendingEnd, m.id)
	// Late feedback that arrived after the last frame still counts in
	// the books (a final report races the End datagram).
	for {
		select {
		case <-m.feedback:
			m.sum.Reports++
			m.mReports.Add(1)
			continue
		default:
		}
		break
	}
	m.sum.PacketsSent = m.mPackets.Value()
	m.sum.BytesSent = m.mBytes.Value()
	if d := m.queue.droppedFrames() - m.sum.QueueDroppedFrames; d > 0 {
		m.mQueueDrop.Add(d)
		m.sum.QueueDroppedFrames += d
	}
	if err != nil && m.sum.Err == "" {
		m.sum.Err = err.Error()
	}
	sc.srv.finishSession(m)
}

// hardStop abandons every live session when the root context is
// cancelled (Close, or Shutdown's drain budget expiring). Summaries
// are still recorded — with the cancellation as their error — so no
// session ever vanishes from the books.
func (sc *scheduler) hardStop(ctx context.Context) {
	err := ctx.Err()
	for _, l := range append([]*lineage(nil), sc.lineages...) {
		for _, m := range append([]*session(nil), l.members...) {
			if !m.closing {
				m.closing = true
				m.queue.close()
			}
			m.lin = nil
			sc.finalize(m, err)
		}
	}
	sc.lineages = nil
	for _, m := range sc.pendingEnd {
		sc.finalize(m, err)
	}
	// Admissions racing the cancellation still need their books closed.
	for {
		select {
		case s := <-sc.admit:
			s.sum = SessionSummary{ID: s.id, Client: s.client.String(), FramesRequested: s.req.Frames, Err: err.Error()}
			s.finished = true
			sc.srv.finishSession(s)
		default:
			return
		}
	}
}

// worker is one farm goroutine: it borrows a lineage's encode state
// for the duration of a job (the scheduler guarantees exclusivity via
// the inflight flag) and hands the result back. Worker i owns job
// queue i — see the scheduler.jobs field and enqueue for the sticky
// sharding.
func (sc *scheduler) worker(ctx context.Context, i int) {
	defer sc.srv.farmWG.Done()
	queue := sc.jobs[i]
	for {
		select {
		case <-ctx.Done():
			return
		case job := <-queue:
			sc.encode(job)
			select {
			case sc.results <- job:
			case <-ctx.Done():
				return
			}
		}
	}
}

// encode runs the job: retune the planner, encode, packetise, protect.
func (sc *scheduler) encode(job *encodeJob) {
	l := job.lin
	l.planner.SetPLR(job.knob.plr)
	l.planner.SetIntraTh(job.knob.th)
	t0 := time.Now()
	ef, err := l.enc.EncodeFrame(l.src.Frame(job.frame))
	job.encodeTime = time.Since(t0)
	if err != nil {
		job.err = err
		return
	}
	var pkts []network.Packet
	if l.key.interleave > 1 {
		pkts = l.pktz.PacketizeInterleaved(ef, l.key.interleave)
	} else {
		pkts = l.pktz.Packetize(ef)
	}
	if l.fec != nil {
		pkts = append(l.fec.Protect(pkts), l.fec.Flush()...)
	}
	job.pkts = pkts
	job.intraMBs = ef.Plan.IntraCount()
	job.frameEnergy = sc.srv.cfg.Profile.Joules(l.counters.Sub(l.prevCounters))
	l.prevCounters = l.counters
}
