package serve

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pbpair/internal/adapt"
	"pbpair/internal/energy"
	"pbpair/internal/motion"
	"pbpair/internal/network"
	"pbpair/internal/obs"
	"pbpair/internal/parallel"
	"pbpair/internal/synth"
)

// Config parameterises a Server. The zero value plus an Addr is
// usable; withDefaults fills the rest.
type Config struct {
	// Addr is the UDP address to listen on ("127.0.0.1:0" for an
	// ephemeral loopback port).
	Addr string

	// MaxSessions is the admission cap: hellos beyond it are rejected
	// with a reason. Default 8.
	MaxSessions int
	// MaxFrames caps a single session's requested frame count.
	// Default 100000.
	MaxFrames int
	// QueueFrames is the per-session send-queue capacity in frames;
	// beyond it the drop-oldest backpressure policy evicts. Default 32.
	QueueFrames int
	// MTU bounds media packet payloads. Default 1400.
	MTU int
	// FrameInterval paces each lineage on a capture-clock grid: its
	// first dispatch (when the cohort window closes) anchors the grid,
	// and frame k is then due at anchor + k × FrameInterval, so a late
	// dispatch delays that frame alone instead of every later one. A
	// dispatch a whole interval or more late re-anchors the grid at
	// that dispatch, skipping the missed slots rather than bursting to
	// catch up (server.pacing_reanchors). The same yardstick defines
	// overload: a due lineage that finds the farm backlog full is
	// load-shed — deferred, counted, admission-gated — only once it is a
	// whole interval behind its grid; otherwise it goes out on the next
	// pass. 0 = unpaced, as fast as the farm allows, where every due
	// lineage counts as behind and a full backlog alone is overload.
	// Default 0.
	FrameInterval time.Duration
	// SessionTimeout is the hard per-session deadline. Default 10m.
	SessionTimeout time.Duration
	// ReportTimeout aborts a session whose client promised reports
	// (ReportEvery > 0 in its hello) but has sent none for this long.
	// 0 disables the check.
	ReportTimeout time.Duration

	// Workers is codec.Config.Workers for each lineage's encoder
	// (intra-frame sharding). Default 1: the farm already runs
	// FarmWorkers encodes concurrently.
	Workers int
	// Search selects the motion search. Default ThreeStep — the
	// serving layer favours latency over the exhaustive reference
	// search the offline experiments use.
	Search motion.SearchKind

	// FarmWorkers is the encode farm size: how many frame encodes run
	// concurrently, across all sessions. Default GOMAXPROCS. The farm
	// is the server's fixed goroutine budget — session count does not
	// change the goroutine topology.
	FarmWorkers int
	// FarmBacklog bounds the farm's job queue. When a scheduling pass
	// cannot enqueue every due lineage, the newest lineages wait first;
	// those a whole FrameInterval behind are load-shed and admission
	// rejects new hellos until the farm catches up. Default 2 ×
	// FarmWorkers.
	FarmBacklog int
	// CohortWindow is how long a newly formed lineage lingers at frame
	// 0 so that compatible sessions arriving within the window join it
	// and share its encodes. 0 (the default) starts lineages
	// immediately; sessions admitted while frame 0 is still pending
	// can join regardless.
	CohortWindow time.Duration
	// CoalesceBytes bounds a coalesced 'C' media datagram's payload:
	// consecutive small packets for one session are packed together up
	// to this size, cutting per-datagram overhead. 0 selects MTU + 64
	// (coalescing within the path MTU); negative disables coalescing
	// (every packet rides its own 'M' datagram).
	CoalesceBytes int
	// RecvBatch is how many datagrams the read loop asks the kernel for
	// per receive pass (recvmmsg(2) batching on Linux; elsewhere the
	// portable one-read path fills one slot per pass and the rest of the
	// ring is just headroom). Default 32.
	RecvBatch int
	// RecvShards shards the datapath across N SO_REUSEPORT sockets,
	// each with its own read loop and its own batched sender, so
	// neither direction of the socket serialises through one goroutine.
	// The kernel steers each client's datagrams to one shard by 4-tuple
	// hash; admission pins the session's send path to that same shard.
	// 0 selects FarmWorkers shards on Linux and 1 elsewhere; values > 1
	// are clamped to 1 on platforms without Linux SO_REUSEPORT
	// semantics (single-socket fallback, identical receiver-visible
	// behaviour).
	RecvShards int

	// AlphaQuantum quantises each session's α̂ to the nearest multiple
	// before the controllers and the lineage partition see it. The
	// estimator keeps full precision internally; quantisation only
	// coarsens the *applied* knob, which (a) stops two sessions whose
	// EMAs differ by a few ulps from forking onto separate lineages and
	// (b) gives a recovered session a reachable way back to exactly
	// α̂ = 0, the precondition for lineage re-merge. Default 1/64;
	// negative disables quantisation (every ulp forks, nothing merges).
	AlphaQuantum float64
	// DisableMerge turns off lineage re-merging: forked lineages that
	// return to bit-identical encoder/packetiser state are normally
	// folded back into their cohort-mates so they share encodes again.
	DisableMerge bool

	// EstimatorWeight smooths receiver reports into α̂ (report-level
	// EMA weight; see adapt.PLREstimator.ObserveReport). Default 0.35.
	EstimatorWeight float64
	// RefreshInterval is the quality controller's target refresh
	// interval n* in frames. Default 6.
	RefreshInterval float64
	// Similarity is the controller's assumed content similarity factor.
	// Default 0.75.
	Similarity float64
	// EnergyBudget, if positive, adds an energy controller that raises
	// Intra_Th above the quality controller's value while the modelled
	// per-frame encode energy exceeds the budget (joules per frame).
	EnergyBudget float64
	// Profile is the energy model device profile. Default energy.IPAQ.
	Profile energy.Profile

	// Registry receives the server's metrics; one is created if nil.
	Registry *obs.Registry
	// Logf, if set, receives one line per session lifecycle event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.MaxFrames <= 0 {
		c.MaxFrames = 100000
	}
	if c.QueueFrames <= 0 {
		c.QueueFrames = 32
	}
	if c.MTU <= 0 {
		c.MTU = 1400
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 10 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.FarmWorkers <= 0 {
		c.FarmWorkers = runtime.GOMAXPROCS(0)
	}
	if c.FarmBacklog <= 0 {
		c.FarmBacklog = 2 * c.FarmWorkers
	}
	if c.CoalesceBytes == 0 {
		c.CoalesceBytes = c.MTU + 64
	}
	if c.RecvBatch <= 0 {
		c.RecvBatch = 32
	}
	if c.RecvShards == 0 {
		if network.ReusePortSupported() {
			c.RecvShards = c.FarmWorkers
		} else {
			c.RecvShards = 1
		}
	}
	if c.RecvShards < 1 || !network.ReusePortSupported() {
		c.RecvShards = 1
	}
	if c.AlphaQuantum == 0 {
		c.AlphaQuantum = 1.0 / 64
	}
	if c.Search == 0 {
		c.Search = motion.ThreeStep
	}
	if c.EstimatorWeight <= 0 || c.EstimatorWeight > 1 {
		c.EstimatorWeight = 0.35
	}
	if c.RefreshInterval < 1 {
		c.RefreshInterval = 6
	}
	if c.Similarity <= 0 {
		c.Similarity = 0.75
	}
	if c.Profile.Name == "" {
		c.Profile = energy.IPAQ
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// maxKeptSummaries bounds the completed-session history.
const maxKeptSummaries = 256

// shard is one slice of the sharded datapath: a socket (bound with
// SO_REUSEPORT alongside its peers when RecvShards > 1), the read loop
// state draining it, and the sender goroutine transmitting on it. The
// kernel's 4-tuple steering keeps each client's inbound datagrams on
// one shard's socket; admission pins the session's outbound media to
// the same shard's sender. Control datagrams that land on another
// shard anyway (steering is only hash-stable, not contractual) are
// handled in place — session lookup is global and the feedback channel
// accepts sends from any goroutine, so the cross-shard hand-off costs
// no forwarding hop and takes no lock beyond the session-table lookup
// every datagram already pays.
type shard struct {
	idx  int
	srv  *Server
	conn *net.UDPConn
	snd  *sender

	// mRecvDatagrams is this shard's inbound datagram count
	// ("server.shard<idx>.recv_datagrams"): the balance evidence for
	// server.shard_rx_balance and the operator's view of how evenly the
	// kernel is steering flows.
	mRecvDatagrams *obs.Counter
}

// writeTo sends one datagram on this shard's socket, reporting success.
func (sh *shard) writeTo(buf []byte, addr *net.UDPAddr) bool {
	_, err := sh.conn.WriteToUDP(buf, addr)
	return err == nil
}

// Server runs the serving layer: RecvShards UDP sockets sharing one
// addr:port (SO_REUSEPORT) carrying every session's media, feedback
// and control datagrams, a shared encode farm behind a single
// scheduler goroutine, one batched sender per shard, and an
// obs.Registry exporting the lot. The goroutine topology is fixed —
// RecvShards read loops + scheduler + RecvShards senders + FarmWorkers
// farm workers — no matter how many sessions are live; sessions are
// state machines, not goroutines. See ARCHITECTURE.md, "Serving layer"
// and "Receive sharding".
type Server struct {
	cfg    Config
	shards []*shard
	reg    *obs.Registry

	rootCtx context.Context
	cancel  context.CancelFunc
	readWG  sync.WaitGroup
	farmWG  sync.WaitGroup

	sched *scheduler

	// overloaded mirrors the scheduler's load-shed state for the
	// admission path (readLoop), which must not touch scheduler state.
	overloaded atomic.Bool

	mu        sync.Mutex
	accepting bool
	sessions  map[uint32]*session
	byAddr    map[string]*session
	nextID    uint32
	summaries []SessionSummary
	sources   map[synth.Regime]synth.Source

	mActive        *obs.Gauge
	mStarted       *obs.Counter
	mRejected      *obs.Counter
	mCompleted     *obs.Counter
	mBadDatagrams  *obs.Counter
	mLostFeedback  *obs.Counter
	mE2EDiscarded  *obs.Counter
	mEncodes       *obs.Counter
	mSharedFrames  *obs.Counter
	mForks         *obs.Counter
	mMerges        *obs.Counter
	mLineages      *obs.Gauge
	mFarmDepth     *obs.Gauge
	mShedDeferrals *obs.Counter
	mShedRejects   *obs.Counter
	mDispatchSlip  *obs.Histogram
	mReanchors     *obs.Counter
	mOverloaded    *obs.Gauge
	mSendBatches   *obs.Counter
	mSendDatagrams *obs.Counter
	mRecvBatches   *obs.Counter
	mRecvDatagrams *obs.Counter
	mRecvBatchSize *obs.Histogram
	mCoalesced     *obs.Counter
	mFrameLat      *obs.Histogram
	mEncodeLat     *obs.Histogram
	mE2ELat        *obs.Histogram
	mShardBalance  *obs.Gauge
	mRcvbufBytes   *obs.Gauge
	mSndbufBytes   *obs.Gauge
}

// sockBufRequest is the socket buffer size asked of every shard
// socket in both directions. Scale-out serving floods the sockets: an
// admission storm of hellos inbound, every member's media outbound.
// The kernel default (~208KB) holds only a few thousand datagrams, so
// a 10k-client launch wave overflows it before the read loops can
// drain. The request is best-effort — the kernel silently clamps to
// its rmem_max/wmem_max ceilings — which is why New reads the
// effective sizes back rather than trusting the ask.
const sockBufRequest = 4 << 20

// listenShards binds the server's socket set: one plain socket, or
// RecvShards SO_REUSEPORT sockets sharing cfg.Addr so the kernel
// load-balances inbound flows across them. The first socket may bind
// an ephemeral port; the rest bind its resolved concrete address.
func listenShards(cfg *Config) ([]*net.UDPConn, error) {
	if cfg.RecvShards <= 1 {
		addr, err := net.ResolveUDPAddr("udp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("serve: resolve %q: %w", cfg.Addr, err)
		}
		conn, err := net.ListenUDP("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("serve: listen: %w", err)
		}
		return []*net.UDPConn{conn}, nil
	}
	first, err := network.ListenUDPReusePort("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen (reuseport): %w", err)
	}
	conns := []*net.UDPConn{first}
	bound := first.LocalAddr().String()
	for i := 1; i < cfg.RecvShards; i++ {
		c, err := network.ListenUDPReusePort("udp", bound)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("serve: listen shard %d (reuseport): %w", i, err)
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// New binds the shard socket set and starts the farm: the
// demultiplexing read loops, the scheduler, the per-shard batched
// senders and the encode workers. The caller must eventually Shutdown
// or Close.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	conns, err := listenShards(&cfg)
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for _, c := range conns {
		c.SetReadBuffer(sockBufRequest)
		c.SetWriteBuffer(sockBufRequest)
	}
	qctl, err := adapt.NewQualityController(cfg.RefreshInterval)
	if err != nil {
		closeAll()
		return nil, err
	}
	qctl.SetSimilarity(cfg.Similarity)

	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Registry,
		rootCtx:   ctx,
		cancel:    cancel,
		accepting: true,
		sessions:  make(map[uint32]*session),
		byAddr:    make(map[string]*session),
		sources:   make(map[synth.Regime]synth.Source),

		mActive:        cfg.Registry.Gauge("server.sessions_active"),
		mStarted:       cfg.Registry.Counter("server.sessions_started"),
		mRejected:      cfg.Registry.Counter("server.sessions_rejected"),
		mCompleted:     cfg.Registry.Counter("server.sessions_completed"),
		mBadDatagrams:  cfg.Registry.Counter("server.bad_datagrams"),
		mLostFeedback:  cfg.Registry.Counter("server.feedback_dropped"),
		mE2EDiscarded:  cfg.Registry.Counter("server.e2e_discarded"),
		mEncodes:       cfg.Registry.Counter("server.encodes"),
		mSharedFrames:  cfg.Registry.Counter("server.encode_shared_frames"),
		mForks:         cfg.Registry.Counter("server.lineage_forks"),
		mMerges:        cfg.Registry.Counter("server.lineage_merges"),
		mLineages:      cfg.Registry.Gauge("server.lineages_active"),
		mFarmDepth:     cfg.Registry.Gauge("server.farm_queue_depth"),
		mShedDeferrals: cfg.Registry.Counter("server.loadshed_deferrals"),
		mShedRejects:   cfg.Registry.Counter("server.loadshed_rejects"),
		mDispatchSlip:  cfg.Registry.Histogram("server.dispatch_slip"),
		mReanchors:     cfg.Registry.Counter("server.pacing_reanchors"),
		mOverloaded:    cfg.Registry.Gauge("server.overloaded"),
		mSendBatches:   cfg.Registry.Counter("server.send_batches"),
		mSendDatagrams: cfg.Registry.Counter("server.send_datagrams"),
		mRecvBatches:   cfg.Registry.Counter("server.recv_batches"),
		mRecvDatagrams: cfg.Registry.Counter("server.recv_datagrams"),
		mRecvBatchSize: cfg.Registry.Histogram("server.recv_batch_size"),
		mCoalesced:     cfg.Registry.Counter("server.coalesced_packets"),
		mFrameLat:      cfg.Registry.Histogram("server.frame_latency"),
		mEncodeLat:     cfg.Registry.Histogram("server.encode_latency"),
		mE2ELat:        cfg.Registry.Histogram("server.e2e_latency"),
		mShardBalance:  cfg.Registry.Gauge("server.shard_rx_balance"),
		mRcvbufBytes:   cfg.Registry.Gauge("server.rcvbuf_bytes"),
		mSndbufBytes:   cfg.Registry.Gauge("server.sndbuf_bytes"),
	}
	s.mShardBalance.Set(1) // no traffic yet: trivially balanced
	s.checkSocketBuffers(conns)
	for i, c := range conns {
		sh := &shard{
			idx:            i,
			srv:            s,
			conn:           c,
			mRecvDatagrams: cfg.Registry.Counter(fmt.Sprintf("server.shard%d.recv_datagrams", i)),
		}
		sh.snd = newSender(s, sh)
		s.shards = append(s.shards, sh)
	}
	s.sched = newScheduler(s, qctl)

	s.readWG.Add(len(s.shards))
	for _, sh := range s.shards {
		go s.readLoop(sh)
	}
	s.farmWG.Add(1 + len(s.shards) + cfg.FarmWorkers)
	go s.sched.run(ctx)
	for _, sh := range s.shards {
		go sh.snd.run(ctx)
	}
	for i := 0; i < cfg.FarmWorkers; i++ {
		go s.sched.worker(ctx, i)
	}
	return s, nil
}

// checkSocketBuffers verifies the sockBufRequest actually took: the
// kernel clamps SetReadBuffer/SetWriteBuffer to rmem_max/wmem_max
// without reporting it, and an operator sizing a fleet off the request
// would plan for queue capacity the sockets don't have. The effective
// minima across shards are exported as gauges and a clamp is logged
// once with the sysctl to raise.
func (s *Server) checkSocketBuffers(conns []*net.UDPConn) {
	minRcv, minSnd := -1, -1
	for _, c := range conns {
		rcv, snd, ok := network.SocketBuffers(c)
		if !ok {
			return // no readback on this platform: trust the request
		}
		if minRcv < 0 || rcv < minRcv {
			minRcv = rcv
		}
		if minSnd < 0 || snd < minSnd {
			minSnd = snd
		}
	}
	if minRcv < 0 {
		return
	}
	s.mRcvbufBytes.Set(float64(minRcv))
	s.mSndbufBytes.Set(float64(minSnd))
	// Linux reports double the usable request (bookkeeping overhead is
	// billed to the buffer), so effective < requested means the request
	// was genuinely clamped, not just accounted differently.
	if minRcv < sockBufRequest {
		s.cfg.logf("socket rcvbuf clamped to %d bytes (asked %d; raise net.core.rmem_max)",
			minRcv, sockBufRequest)
	}
	if minSnd < sockBufRequest {
		s.cfg.logf("socket sndbuf clamped to %d bytes (asked %d; raise net.core.wmem_max)",
			minSnd, sockBufRequest)
	}
}

// Addr returns the bound UDP address (shared by every shard socket).
func (s *Server) Addr() *net.UDPAddr { return s.shards[0].conn.LocalAddr().(*net.UDPAddr) }

// Registry returns the server's metric registry (mount it on an HTTP
// mux for the observability endpoint — it implements http.Handler).
func (s *Server) Registry() *obs.Registry { return s.reg }

// ActiveSessions returns the number of live sessions.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Summaries returns the completed-session history, oldest first (most
// recent maxKeptSummaries).
func (s *Server) Summaries() []SessionSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionSummary, len(s.summaries))
	copy(out, s.summaries)
	return out
}

// sourceFor returns the regime's shared frame source: one bounded
// window memo per regime, so every lineage of a regime shares frame
// renders while memory stays bounded on unbounded streams.
func (s *Server) sourceFor(r synth.Regime) synth.Source {
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.sources[r]
	if !ok {
		src = synth.MemoizeWindow(synth.New(r), 2*s.cfg.QueueFrames)
		s.sources[r] = src
	}
	return src
}

// pokeSenders nudges every shard's sender (all pokes are non-blocking
// one-slot channel sends, so this is a handful of atomic operations).
// The scheduler uses it after fanout and close passes: a lineage's
// members can span shards, so the frame completion must wake each
// shard that might now have queued media.
func (s *Server) pokeSenders() {
	for _, sh := range s.shards {
		sh.snd.poke()
	}
}

// updateShardBalance refreshes server.shard_rx_balance: the min/max
// ratio of per-shard received datagram counts (1.0 = perfectly even,
// and by convention also the single-shard value). Called from the read
// loops once per batch — a few atomic loads — so the gauge tracks the
// kernel's live flow steering without a sampler goroutine.
func (s *Server) updateShardBalance() {
	var minN, maxN int64 = -1, 0
	for _, sh := range s.shards {
		n := sh.mRecvDatagrams.Value()
		if minN < 0 || n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}
	if maxN > 0 {
		s.mShardBalance.Set(float64(minN) / float64(maxN))
	}
}

// recvBufBytes sizes each receive-ring buffer. Every inbound datagram
// type — hello, report, bye — is tens of bytes; an oversized datagram
// truncates (standard UDP read semantics) and fails its parse, which
// is exactly how a corrupt datagram is handled anyway.
const recvBufBytes = 2048

// readLoop demultiplexes one shard's inbound datagrams until its
// socket closes; with RecvShards > 1 the kernel fans the client
// population across the loops, so the receive path scales with cores
// instead of serialising through one goroutine. Each loop reads
// through its own network.BatchReceiver, so a burst of feedback from
// thousands of receivers drains in one recvmmsg(2) per RecvBatch
// datagrams on Linux rather than one syscall each. The slot ring is
// the read path's buffer pool: allocated once here and reused for
// every batch by whichever receiver implementation is active (recvmmsg
// or the portable fallback), keeping the steady state allocation-free.
func (s *Server) readLoop(sh *shard) {
	defer s.readWG.Done()
	recv := network.NewBatchReceiver(sh.conn)
	slots := make([]network.RecvSlot, s.cfg.RecvBatch)
	for i := range slots {
		slots[i].Buf = make([]byte, recvBufBytes)
	}
	for {
		n, err := recv.RecvBatch(slots)
		if err != nil {
			return // socket closed by Shutdown/Close
		}
		if n == 0 {
			continue
		}
		s.mRecvBatches.Add(1)
		s.mRecvDatagrams.Add(int64(n))
		s.mRecvBatchSize.ObserveValue(int64(n))
		sh.mRecvDatagrams.Add(int64(n))
		s.updateShardBalance()
		for i := 0; i < n; i++ {
			s.handleDatagram(sh, slots[i].Buf[:slots[i].N], slots[i].Addr)
		}
	}
}

// handleDatagram dispatches one inbound datagram that arrived on shard
// sh. The report path — the hot one at scale, every receiver sends
// them continuously — must stay allocation-free (pinned by
// TestHandleDatagramAllocFree); the hello path converts the address to
// *net.UDPAddr and may allocate, which a once-per-session event can
// afford. The shard matters only for replies (accepts and rejects go
// back out the socket the datagram came in on) and for pinning new
// sessions; reports and byes for sessions pinned elsewhere are handled
// right here — the cross-shard hand-off — because the session table is
// shared and the feedback channel takes sends from any goroutine.
//
// Reports and byes are trusted only from the session's own client
// host: one from any other IP address is counted as a bad datagram and
// dropped, so a forged session id can neither retune nor stop a
// stream, nor feed the fleet's e2e latency histogram. The port is not
// compared: a receiver may send its feedback from a second socket, as
// RTCP rides beside RTP, and that is also how the cross-shard hand-off
// is exercised (TestCrossShardHandoff).
func (s *Server) handleDatagram(sh *shard, buf []byte, from netip.AddrPort) {
	if len(buf) == 0 {
		return
	}
	switch buf[0] {
	case msgHello:
		s.handleHello(sh, buf, from)
	case msgReport:
		r, err := parseReport(buf)
		if err != nil {
			s.mBadDatagrams.Add(1)
			return
		}
		sess := s.sessionFrom(r.Session, from)
		if sess == nil {
			return
		}
		// An echo older than a whole session cannot be a real sample.
		switch e2e := int64(r.E2EMicros); {
		case e2e > s.cfg.SessionTimeout.Microseconds():
			s.mE2EDiscarded.Add(1)
		case e2e > 0:
			s.mE2ELat.ObserveValue(e2e)
		}
		select {
		case sess.feedback <- r:
		default:
			s.mLostFeedback.Add(1)
		}
	case msgBye:
		id, ok := parseBye(buf)
		if !ok {
			s.mBadDatagrams.Add(1)
			return
		}
		if sess := s.sessionFrom(id, from); sess != nil {
			s.cfg.logf("session %d: client bye", id)
			sess.stopReq.Store(true)
			s.sched.poke()
		}
	default:
		s.mBadDatagrams.Add(1)
	}
}

// sessionFrom looks up a live session for a report or bye, returning
// nil for a finished session (a stale datagram) and for a datagram
// from another host than the session's client (counted as bad).
func (s *Server) sessionFrom(id uint32, from netip.AddrPort) *session {
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess != nil && sess.addr.Addr() != from.Addr() {
		s.mBadDatagrams.Add(1)
		return nil
	}
	return sess
}

// handleHello is admission control: duplicate hellos re-accept the
// existing session (UDP retransmits); capacity, overload and
// validation failures reject with a reason the client can print.
// Load shedding starts here — an overloaded farm rejects the newest
// would-be sessions so that admitted ones keep their service level.
// The accepted session is pinned to sh, the shard whose socket saw the
// hello: the kernel's flow steering will keep routing this client
// there, so pinning aligns the session's send path with its receive
// path (and, via lineage.home, its encode worker).
func (s *Server) handleHello(sh *shard, buf []byte, from netip.AddrPort) {
	addr := net.UDPAddrFromAddrPort(from)
	h, err := parseHello(buf)
	if err != nil {
		s.mBadDatagrams.Add(1)
		s.reject(sh, addr, err.Error())
		return
	}
	if h.QP == 0 {
		h.QP = 8
	}
	reason := ""
	switch {
	case h.Frames <= 0:
		reason = "session must request at least one frame"
	case h.Frames > s.cfg.MaxFrames:
		reason = fmt.Sprintf("requested %d frames exceeds limit %d", h.Frames, s.cfg.MaxFrames)
	case !validRegime(h.Regime):
		reason = fmt.Sprintf("unknown content regime %d", h.Regime)
	}
	if reason != "" {
		s.mRejected.Add(1)
		s.reject(sh, addr, reason)
		return
	}

	s.mu.Lock()
	// Duplicate-hello suppression applies only while the session is
	// live: once the client has said bye — or once the End burst is on
	// the wire (endSent), which is the moment the old client can read
	// it, close, and surrender its ephemeral port — the address may
	// already belong to a brand-new client, and re-accepting that
	// newcomer onto the dead stream would strand it until its idle
	// timeout. A stopped-or-ended mapping falls through to fresh
	// admission below, which re-points byAddr at the newcomer.
	if existing := s.byAddr[addr.String()]; existing != nil &&
		!existing.stopReq.Load() && !existing.endSent.Load() {
		id, frames := existing.id, existing.req.Frames
		s.mu.Unlock()
		sh.writeTo(appendAccept(nil, id, frames), addr)
		return
	}
	if !s.accepting {
		s.mu.Unlock()
		s.mRejected.Add(1)
		s.reject(sh, addr, "server is shutting down")
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		n := len(s.sessions)
		s.mu.Unlock()
		s.mRejected.Add(1)
		s.reject(sh, addr, fmt.Sprintf("server at capacity (%d/%d sessions)", n, s.cfg.MaxSessions))
		return
	}
	if s.overloaded.Load() {
		s.mu.Unlock()
		s.mRejected.Add(1)
		s.mShedRejects.Add(1)
		s.reject(sh, addr, "server overloaded, shedding new sessions")
		return
	}
	s.nextID++
	sess := &session{
		id:       s.nextID,
		client:   addr,
		addr:     from,
		req:      h,
		sh:       sh,
		feedback: make(chan report, 16),
		done:     make(chan struct{}),
		queue:    newFrameQueue(s.cfg.QueueFrames),
	}
	s.sessions[sess.id] = sess
	s.byAddr[addr.String()] = sess
	active := len(s.sessions)
	s.mu.Unlock()

	s.mStarted.Add(1)
	s.mActive.Set(float64(active))
	s.cfg.logf("session %d: accepted %s (%d frames, regime %s, qp %d, fec %d, interleave %d)",
		sess.id, sess.client, h.Frames, h.Regime, h.QP, h.FECGroup, h.Interleave)
	sh.writeTo(appendAccept(nil, sess.id, h.Frames), addr)
	select {
	case s.sched.admit <- sess:
	case <-s.rootCtx.Done():
	}
}

func (s *Server) reject(sh *shard, addr *net.UDPAddr, reason string) {
	s.cfg.logf("rejected %s: %s", addr, reason)
	sh.writeTo(appendReject(nil, reason), addr)
}

// finishSession records the summary, releases the session's registry
// slice and closes its done channel. Called from the scheduler only.
func (s *Server) finishSession(sess *session) {
	sum := sess.sum
	s.reg.RemovePrefix(sess.metricPrefix())
	s.mu.Lock()
	delete(s.sessions, sess.id)
	// The address may have been re-registered by a successor session
	// (port reuse between this session's stop and its finalisation);
	// only remove the mapping while this session still owns it.
	if s.byAddr[sess.client.String()] == sess {
		delete(s.byAddr, sess.client.String())
	}
	s.summaries = append(s.summaries, sum)
	if len(s.summaries) > maxKeptSummaries {
		s.summaries = s.summaries[len(s.summaries)-maxKeptSummaries:]
	}
	active := len(s.sessions)
	s.mu.Unlock()
	s.mCompleted.Add(1)
	s.mActive.Set(float64(active))
	outcome := "ok"
	if sum.Err != "" {
		outcome = sum.Err
	}
	s.cfg.logf("session %d: finished %d/%d frames, %d pkts, %d queue-dropped, α̂=%.3f Th=%.3f (%s)",
		sum.ID, sum.FramesEncoded, sum.FramesRequested, sum.PacketsSent,
		sum.QueueDroppedFrames, sum.FinalAlpha, sum.FinalIntraTh, outcome)
	close(sess.done)
}

// Shutdown stops admitting, asks every session to stop gracefully and
// waits — via parallel.ForEachCtx, so the wait itself honours ctx —
// for queued frames to drain and Ends to reach the wire. Sessions
// still alive when ctx expires are hard-cancelled (their summaries
// record the cancellation). The socket closes last.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.accepting = false
	draining := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		draining = append(draining, sess)
	}
	s.mu.Unlock()

	for _, sess := range draining {
		sess.stopReq.Store(true)
	}
	s.sched.poke()
	var err error
	if len(draining) > 0 {
		err = parallel.ForEachCtx(ctx, len(draining), len(draining), func(i int) {
			select {
			case <-draining[i].done:
			case <-ctx.Done():
			}
		})
	}
	s.cancel() // hard-stop stragglers (no-op if everything drained)
	for _, sh := range s.shards {
		sh.conn.Close()
	}
	s.readWG.Wait()
	s.farmWG.Wait()
	if err != nil {
		return fmt.Errorf("serve: shutdown abandoned undrained sessions: %w", err)
	}
	return nil
}

// Close hard-stops the server without draining.
func (s *Server) Close() error {
	s.mu.Lock()
	s.accepting = false
	s.mu.Unlock()
	s.cancel()
	for _, sh := range s.shards {
		sh.conn.Close()
	}
	s.readWG.Wait()
	s.farmWG.Wait()
	return nil
}

func validRegime(r synth.Regime) bool {
	switch r {
	case synth.RegimeAkiyo, synth.RegimeForeman, synth.RegimeGarden,
		synth.RegimeHall, synth.RegimeMobile:
		return true
	}
	return false
}
