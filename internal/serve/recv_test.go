package serve

import (
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"pbpair/internal/synth"
)

// TestHandleDatagramAllocFree pins the receive hot path: at 10k
// sessions the server consumes a continuous stream of receiver reports,
// and handleDatagram must process one — parse, session lookup, feedback
// hand-off — without allocating. The read loop above it reuses the
// RecvSlot ring (pinned by the network package's own alloc test), so
// this keeps the whole datagram→estimator path allocation-free.
func TestHandleDatagramAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	srv, err := New(Config{Addr: "127.0.0.1:0", MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A hand-placed session skips the hello path: the report path needs
	// only the id → session table entry, the client address reports must
	// come from, and the feedback channel.
	from := netip.MustParseAddrPort("127.0.0.1:9999")
	sess := &session{id: 42, addr: from, feedback: make(chan report, 4)}
	srv.mu.Lock()
	srv.sessions[sess.id] = sess
	srv.mu.Unlock()
	defer func() {
		srv.mu.Lock()
		delete(srv.sessions, sess.id)
		srv.mu.Unlock()
	}()

	buf := append([]byte(nil), appendReport(nil, report{
		Session: sess.id, Fraction: 0.1, Received: 100, Lost: 11, E2EMicros: 1500,
	})...)

	// Covers both branches of the hand-off: the channel fills after four
	// reports, after which the drop-with-counter path must be just as
	// allocation-free (that is the steady state under feedback overload).
	if allocs := testing.AllocsPerRun(1000, func() {
		srv.handleDatagram(srv.shards[0], buf, from)
	}); allocs > 0 {
		t.Fatalf("handleDatagram allocates %.2f times per report, want 0", allocs)
	}
	if lost := srv.Registry().Snapshot()["server.feedback_dropped"]; lost <= 0 {
		t.Errorf("overflow path never exercised (feedback_dropped = %v)", lost)
	}
}

// TestSpoofedReportIgnored pins the report path's source check: a
// report and a bye carrying a live session's id but sent from a socket
// on another host address must neither retune the session, nor stop
// it, nor reach the server.e2e_latency histogram. The same report from the session's own
// client is consumed, and an echo older than a whole session is
// discarded and counted instead of observed.
func TestSpoofedReportIgnored(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0", MaxSessions: 2, FrameInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, id, _, err := dialSession(srv.Addr().String(), hello{Frames: 1000, Regime: synth.RegimeForeman, ReportEvery: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 127.0.0.2 is another host as far as the server can tell; every
	// 127/8 address is local on Linux, not necessarily elsewhere.
	spoof, err := net.DialUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 2)}, srv.Addr())
	if err != nil {
		t.Skipf("no second loopback address to spoof from: %v", err)
	}
	defer spoof.Close()

	lossy := report{Session: id, Fraction: 0.5, Received: 50, Lost: 50, E2EMicros: 1000}
	spoof.Write(appendReport(nil, lossy))
	spoof.Write(appendBye(nil, id))
	waitMetric := func(name string, want float64) map[string]float64 {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			snap := srv.Registry().Snapshot()
			if snap[name] == want {
				return snap
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s = %v, want %v", name, snap[name], want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitMetric("server.bad_datagrams", 2)
	time.Sleep(100 * time.Millisecond) // several dispatch passes drain feedback
	snap := srv.Registry().Snapshot()
	prefix := fmt.Sprintf("s%d.", id)
	if snap[prefix+"reports"] != 0 || snap[prefix+"alpha_hat"] != 0 {
		t.Errorf("spoofed report retuned the session: reports %v, alpha_hat %v",
			snap[prefix+"reports"], snap[prefix+"alpha_hat"])
	}
	if got := snap["server.e2e_latency.count"]; got != 0 {
		t.Errorf("spoofed echo reached server.e2e_latency (count %v)", got)
	}
	if srv.ActiveSessions() != 1 {
		t.Error("spoofed bye stopped the session")
	}

	// The genuine client's reports land; its impossible echo does not.
	conn.Write(appendReport(nil, lossy))
	conn.Write(appendReport(nil, report{Session: id, Received: 10, E2EMicros: 4e9}))
	waitMetric(prefix+"reports", 2)
	snap = waitMetric("server.e2e_discarded", 1)
	if got := snap["server.e2e_latency.count"]; got != 1 {
		t.Errorf("server.e2e_latency.count = %v after one genuine echo, want 1", got)
	}
}
