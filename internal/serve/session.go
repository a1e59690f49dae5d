package serve

import (
	"fmt"
	"math"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"pbpair/internal/adapt"
	"pbpair/internal/obs"
)

// TracePoint is one frame's worth of control-loop state, recorded into
// the session summary so tests and operators can replay how the
// feedback loop moved.
type TracePoint struct {
	Frame    int
	Alpha    float64 // α̂ applied to this frame
	IntraTh  float64 // Intra_Th applied to this frame
	IntraMBs int     // intra macroblocks the frame actually coded
}

// SessionSummary is the server-side record of one finished session.
type SessionSummary struct {
	ID                 uint32
	Client             string
	FramesRequested    int
	FramesEncoded      int
	PacketsSent        int64
	BytesSent          int64
	QueueDroppedFrames int64 // frames evicted by drop-oldest backpressure
	Reports            int   // receiver reports consumed
	IntraMBs           int64
	FinalAlpha         float64
	FinalIntraTh       float64
	EnergyJoules       float64 // total modelled encode energy
	Trace              []TracePoint
	Err                string // "" on a clean finish
}

// session is one live stream's state machine. Unlike the previous
// serving layer — which ran two goroutines per session — a session
// owns no goroutine at all: the scheduler advances its control state
// (estimator, controllers, trace), the encode farm produces its frames
// (shared with every other member of its lineage; see lineage.go), and
// the sender drains its queue onto the socket.
//
// Ownership/concurrency contract:
//   - readLoop writes: feedback (bounded, lossy), stopReq.
//   - scheduler owns: est, ectl, sum, trace, lineage membership, queue
//     production and close. Nothing else touches these.
//   - sender owns: queue consumption; it updates the atomic packet and
//     byte counters and confirms Ends back to the scheduler once the
//     End burst is on the wire (sender.takeEnded).
//   - framesEncoded is the only cross-goroutine scalar: the scheduler
//     stores it at fanout, the sender reads it for the End datagram.
type session struct {
	id     uint32
	client *net.UDPAddr
	// addr is client as the read path reports it: reports and byes are
	// accepted only from its host, compared without allocating.
	addr netip.AddrPort
	req  hello
	// sh is the receive shard whose socket saw this session's hello —
	// the kernel's 4-tuple steering keeps the client's datagrams on it —
	// and therefore the shard whose sender carries the session's media:
	// admission pins the session here so its whole datapath (receive,
	// encode stickiness via lineage.home, send) rides one shard. Set
	// once at admission, immutable after.
	sh *shard

	// feedback carries receiver reports from the read loop to the
	// scheduler; bounded and lossy by design (a dropped report is
	// indistinguishable from a lost datagram, and the next report
	// carries fresher information anyway).
	feedback chan report
	// stopReq asks for a graceful stop: stop producing frames, drain
	// the queue, announce the end of the stream. Set by a client bye
	// or by Shutdown; the scheduler acts on it at its next pass.
	stopReq atomic.Bool
	// endSent flips when the sender puts the End burst on the wire.
	// From that moment the client may read the End, close its socket
	// and surrender its ephemeral port, so a hello from this address
	// must be treated as a brand-new client, never as a retransmit —
	// see handleHello's duplicate suppression.
	endSent atomic.Bool
	// done closes when the session is fully finished and its summary
	// recorded. Shutdown waits on it.
	done chan struct{}

	queue *frameQueue

	// framesEncoded is written by the scheduler at fanout and read by
	// the sender when it emits the End datagram.
	framesEncoded atomic.Int64

	// --- scheduler-owned state below ---

	est          *adapt.PLREstimator
	ectl         *adapt.EnergyController
	lastFeedback time.Time
	deadline     time.Time // admission + SessionTimeout
	sum          SessionSummary
	lin          *lineage
	closing      bool // queue closed, awaiting the sender's End
	finished     bool // summary recorded, metrics removed

	// Per-session metrics, registered at admission under "s<id>." and
	// removed when the session finishes.
	mFrames    *obs.Counter
	mPackets   *obs.Counter
	mBytes     *obs.Counter
	mQueueDrop *obs.Counter
	mReports   *obs.Counter
	mIntra     *obs.Counter
	mAlpha     *obs.Gauge
	mTh        *obs.Gauge
	mDepth     *obs.Gauge
	mJoules    *obs.Gauge
	mEncode    *obs.Histogram
}

// shardIdx returns the index of the session's receive shard (0 for
// sessions constructed without one, as some unit tests do).
func shardIdx(s *session) int {
	if s.sh != nil {
		return s.sh.idx
	}
	return 0
}

// metricPrefix namespaces this session's metrics in the registry.
func (s *session) metricPrefix() string { return fmt.Sprintf("s%d.", s.id) }

// registerMetrics creates the per-session metric set. Scheduler-only.
func (s *session) registerMetrics(reg *obs.Registry) {
	prefix := s.metricPrefix()
	s.mFrames = reg.Counter(prefix + "frames_encoded")
	s.mPackets = reg.Counter(prefix + "packets_sent")
	s.mBytes = reg.Counter(prefix + "bytes_sent")
	s.mQueueDrop = reg.Counter(prefix + "queue_dropped_frames")
	s.mReports = reg.Counter(prefix + "reports")
	s.mIntra = reg.Counter(prefix + "intra_mbs")
	s.mAlpha = reg.Gauge(prefix + "alpha_hat")
	s.mTh = reg.Gauge(prefix + "intra_th")
	s.mDepth = reg.Gauge(prefix + "queue_depth")
	s.mJoules = reg.Gauge(prefix + "energy_joules")
	s.mEncode = reg.Histogram(prefix + "encode_latency")
}

// drainFeedback folds every pending receiver report into the
// estimator. Scheduler-only.
func (s *session) drainFeedback(now time.Time) {
	for {
		select {
		case r := <-s.feedback:
			s.est.ObserveReport(r.Fraction)
			s.sum.Reports++
			s.mReports.Add(1)
			s.lastFeedback = now
		default:
			return
		}
	}
}

// knobs returns the control values this session wants applied to its
// next frame: α̂ from its estimator — quantised to the configured
// quantum, see Config.AlphaQuantum — and the Intra_Th resulting from
// the quality controller (and the energy controller's floor, when one
// is configured). Sessions with bit-identical knob trajectories are
// exactly the ones whose encodes can be shared — see lineage.partition.
// Quantisation rounds to nearest, so an EMA that has decayed below
// quantum/2 snaps back to exactly 0: the lineage re-merge precondition.
func (s *session) knobs(qctl *adapt.QualityController, quantum float64) lineageKnobs {
	alpha := s.est.Rate()
	if quantum > 0 {
		alpha = math.Round(alpha/quantum) * quantum
	}
	th := qctl.IntraTh(alpha)
	if s.ectl != nil {
		if et := s.ectl.IntraTh(); et > th {
			th = et
		}
	}
	return lineageKnobs{plr: alpha, th: th}
}
