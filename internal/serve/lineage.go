package serve

import (
	"fmt"
	"math"
	"time"

	"pbpair/internal/codec"
	"pbpair/internal/core"
	"pbpair/internal/energy"
	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// The serving layer's central observation: the encoder is
// deterministic. Two sessions with the same cohort key (content
// regime, QP, FEC group, interleave — everything the client's hello
// can vary that reaches the encoder or packetiser) and the same
// applied (α̂, Intra_Th) trajectory produce bit-identical packet
// streams. The farm therefore encodes once per *lineage* — a group of
// sessions whose streams are still provably identical — and fans the
// packets out to every member. The moment a member's feedback moves
// its knobs away from its lineage-mates (a lossy receiver raising α̂),
// it forks: the encoder, planner and packetiser are cloned
// copy-on-divergence and the member continues on its own lineage with
// an unbroken bitstream and sequence space.
//
// Forking is reversible. A transient loss blip forks a session off its
// cohort, but once its α̂ decays back to exactly 0 (reachable because
// the applied knob is quantised — Config.AlphaQuantum) the forked
// lineage's stream re-synchronises with its cohort-mates': at knobs
// (0, 0) the planner's σ history is provably output-irrelevant, so two
// lineages with equal encoder state (reference frame, frame number,
// configuration) and equal packetiser sequence position produce
// bit-identical futures. The scheduler detects this — digest prefilter,
// then a deep state comparison — and folds the fork back into its
// cohort-mate (lineage re-merge), so a recovered receiver goes back to
// costing a packet fanout instead of a private encode per frame.
//
// On a machine where encode dominates the frame budget this is what
// makes thousands-of-session serving possible at all: N no-loss
// sessions of one cohort cost one encode per frame plus N packet
// fanouts, not N encodes.

// cohortKey is the encode-affecting part of a client's hello. Sessions
// can share a lineage only when their keys are equal (server-side
// settings — MTU, search kind, worker count — are process-wide and so
// never split a cohort).
type cohortKey struct {
	regime     synth.Regime
	qp         int
	fec        int
	interleave int
}

func keyOf(h hello) cohortKey {
	return cohortKey{regime: h.Regime, qp: h.QP, fec: h.FECGroup, interleave: h.Interleave}
}

// name renders the key as a metric-name segment (the per-cohort
// shared-fraction gauges live under "server.cohort.<name>.").
func (k cohortKey) name() string {
	return fmt.Sprintf("%s_q%d_f%d_i%d", k.regime, k.qp, k.fec, k.interleave)
}

// lineageKnobs is one frame's applied control state. Partitioning
// compares bit patterns, not values: two applied knob sets that differ
// in the last ulp have genuinely diverged and must fork (an
// approximate match would silently desynchronise planner σ state from
// what the receiver decodes against). The α̂ reaching here is already
// quantised (session.knobs), so estimator noise below the quantum
// never splits a cohort — exact comparison and coarse partitioning
// compose instead of fighting.
type lineageKnobs struct {
	plr float64
	th  float64
}

// bits returns the exact-equality partition key.
func (k lineageKnobs) bits() [2]uint64 {
	return [2]uint64{math.Float64bits(k.plr), math.Float64bits(k.th)}
}

// lineage is a group of sessions advancing in lockstep through one
// shared encoder. All fields are scheduler-owned; the encode worker
// borrows enc/planner/src/pktz/fec/counters only while inflight is
// true, during which the scheduler keeps its hands off.
type lineage struct {
	id      uint32
	key     cohortKey
	members []*session

	// home is the receive-shard index of the lineage's founding member:
	// the sticky key for the farm's per-worker job queues (see
	// scheduler.enqueue). Keying by receive shard instead of lineage id
	// aligns a session's inbound datagram stream, its lineage's encodes
	// and its outbound sender on one worker index — soft core affinity
	// for the whole per-session datapath.
	home int

	frame    int       // next frame index to encode
	due      time.Time // pacing: next slot on the capture grid (pacing.go)
	started  bool      // frame 0 dispatched; no more joins
	inflight bool      // an encode job is out for this lineage

	src          synth.Source
	planner      *core.PBPAIR
	enc          *codec.Encoder
	counters     energy.Counters // written by the worker during encode
	prevCounters energy.Counters // worker-owned between jobs
	pktz         *network.Packetizer
	fec          *network.FECEncoder
}

// oldestMember returns the smallest member session id — the lineage's
// scheduling priority. Load shedding defers lineages with the largest
// value first, so the newest sessions degrade before anyone else.
func (l *lineage) oldestMember() uint32 {
	oldest := ^uint32(0)
	for _, m := range l.members {
		if m.id < oldest {
			oldest = m.id
		}
	}
	return oldest
}

// stateMatches reports whether two same-cohort lineages have
// bit-identical forward-looking encode state: same next frame, same
// transport sequence position, and encoders whose output-relevant
// state (configuration, frame number, reference frame) is equal. The
// cheap fields and a digest run first; the full reference-frame
// comparison only confirms what the digest already said. Planner σ is
// deliberately not compared — the caller guarantees both lineages are
// quiescent (applied knobs exactly (0, 0)), and at (0, 0) σ cannot
// influence any mode decision: the intra-refresh comparison σ < Th is
// unsatisfiable at Th = 0, and the ME σ-penalty carries a factor of
// α̂ = 0. Divergent σ histories therefore produce identical bytes.
func (l *lineage) stateMatches(o *lineage) bool {
	return l.frame == o.frame &&
		l.pktz.Seq() == o.pktz.Seq() &&
		l.enc.StateDigest() == o.enc.StateDigest() &&
		l.enc.StateEqual(o.enc)
}

// removeMember drops m from the member list (order preserved —
// fan-out order is stable for determinism of tests and traces).
func (l *lineage) removeMember(m *session) {
	for i, x := range l.members {
		if x == m {
			l.members = append(l.members[:i], l.members[i+1:]...)
			return
		}
	}
}

// fork clones the lineage's encode state for a group of diverging
// members. Called by the scheduler before the parent's next dispatch,
// so parent and fork share every encoded frame up to — but not
// including — the frame about to be encoded. The clone is cheap
// relative to one encode: a reference frame copy plus planner σ state.
func (l *lineage) fork(id uint32, members []*session) (*lineage, error) {
	nl := &lineage{
		id:      id,
		key:     l.key,
		members: members,
		home:    shardIdx(members[0]),
		frame:   l.frame,
		due:     l.due,
		started: l.started,
		src:     l.src, // sources are concurrency-safe and read-only
		planner: l.planner.Clone(),
		pktz:    l.pktz.Clone(),
	}
	nl.counters = l.counters
	nl.prevCounters = l.prevCounters
	var err error
	if nl.enc, err = l.enc.Clone(nl.planner, &nl.counters); err != nil {
		return nil, err
	}
	if l.fec != nil {
		// FEC group state is flushed at every frame boundary, so a
		// fresh encoder with the same group size is an exact clone.
		if nl.fec, err = network.NewFECEncoder(l.key.fec); err != nil {
			return nil, err
		}
	}
	for _, m := range members {
		m.lin = nl
		l.removeMember(m)
	}
	return nl, nil
}

// newPlanner builds a fresh PBPAIR planner for a w×h stream (frame 0
// state: error-free σ matrix, α = Th = 0).
func newPlanner(w, h int) (*core.PBPAIR, error) {
	return core.New(core.Config{
		Rows: h / 16, Cols: w / 16,
		IntraTh: 0, PLR: 0,
	})
}

// newLineageEncoder builds a lineage's encoder from its cohort key and
// the server-wide codec settings.
func newLineageEncoder(cfg *Config, key cohortKey, w, h int, planner *core.PBPAIR, counters *energy.Counters) (*codec.Encoder, error) {
	return codec.NewEncoder(codec.Config{
		Width: w, Height: h,
		QP:       key.qp,
		Search:   cfg.Search,
		Planner:  planner,
		Counters: counters,
		Workers:  cfg.Workers,
	})
}
