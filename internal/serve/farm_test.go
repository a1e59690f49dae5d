package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// TestSoakThousandSessions is the farm's scale proof: a thousand
// no-loss receivers plus a handful of lossy ones against one server.
// The no-loss thousand all present bit-identical (α̂, Intra_Th)
// trajectories, so the farm serves them from a shared lineage — one
// encode per frame fanned out a thousand ways — while the lossy
// sessions' feedback forks them onto private lineages whose control
// loops must still move in the §3.2 direction. The test asserts clean
// finishes all round, heavy encode sharing, at least one
// copy-on-divergence fork, live latency histograms, metric cleanup and
// zero goroutine leaks.
func TestSoakThousandSessions(t *testing.T) {
	const (
		quietSessions = 1000
		quietFrames   = 25
		lossySessions = 8
		lossyFrames   = 60
		lossRate      = 0.30
	)
	before := runtime.NumGoroutine()

	srv, err := New(Config{
		Addr:            "127.0.0.1:0",
		MaxSessions:     quietSessions + lossySessions + 8,
		FrameInterval:   5 * time.Millisecond,
		QueueFrames:     128,
		CohortWindow:    1500 * time.Millisecond,
		EstimatorWeight: 0.25,
		// Provision the farm for the expected lineage count (the quiet
		// mega-cohort plus one fork per lossy session plus straggler
		// waves): with backlog headroom the scheduler absorbs the
		// admission burst instead of shedding it.
		FarmBacklog: 64,
	})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		sum *ClientSummary
		err error
	}
	total := quietSessions + lossySessions
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Phase 1: the quiet thousand, all at once. They must all be
	// admitted, share the cohort lineages, and finish clean.
	results := make(chan result, total)
	for c := 0; c < quietSessions; c++ {
		cfg := ClientConfig{
			Server:      srv.Addr().String(),
			Frames:      quietFrames,
			Regime:      synth.RegimeForeman,
			ReportEvery: 4,
			IdleTimeout: 30 * time.Second,
		}
		go func() {
			sum, err := RunClient(ctx, cfg)
			results <- result{sum, err}
		}()
	}
	for i := 0; i < quietSessions; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("quiet client error: %v", r.err)
		}
		if r.sum.FramesFlushed != quietFrames {
			t.Errorf("quiet client flushed %d/%d frames", r.sum.FramesFlushed, quietFrames)
		}
		if r.sum.PacketsReceived == 0 {
			t.Error("quiet client received no packets")
		}
	}

	// Phase 2: the lossy batch, launched after the quiet wave so their
	// summaries land inside the kept window. They form one cohort at
	// frame 0, then their divergent feedback forks them apart.
	for c := 0; c < lossySessions; c++ {
		cfg := ClientConfig{
			Server:      srv.Addr().String(),
			Frames:      lossyFrames,
			Regime:      synth.RegimeForeman,
			ReportEvery: 2,
			Drop:        ConstLoss(lossRate),
			Seed:        uint64(7000 + c),
			IdleTimeout: 30 * time.Second,
		}
		go func() {
			sum, err := RunClient(ctx, cfg)
			results <- result{sum, err}
		}()
	}
	for i := 0; i < lossySessions; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("lossy client error: %v", r.err)
		}
		if r.sum.FramesFlushed != lossyFrames {
			t.Errorf("lossy client flushed %d/%d frames", r.sum.FramesFlushed, lossyFrames)
		}
		if r.sum.InjectedDrops == 0 {
			t.Error("lossy client injected no drops")
		}
	}

	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	sums := srv.Summaries()
	// Summaries() keeps only the most recent maxKeptSummaries, so
	// per-session assertions run over what survived the cap.
	if len(sums) != maxKeptSummaries {
		t.Fatalf("kept %d summaries, want cap %d", len(sums), maxKeptSummaries)
	}
	lossySeen := 0
	for _, sum := range sums {
		if sum.Err != "" {
			t.Errorf("session %d finished with error: %s", sum.ID, sum.Err)
		}
		if sum.FramesEncoded != sum.FramesRequested {
			t.Errorf("session %d encoded %d/%d frames", sum.ID, sum.FramesEncoded, sum.FramesRequested)
		}
		if sum.FramesRequested != lossyFrames {
			continue
		}
		lossySeen++
		// The lossy receivers' control loops must have engaged: α̂
		// pulled toward the injected rate and Intra_Th retuned off the
		// no-loss operating point into (0, 1). Windowed means over the
		// second half of the trace keep the per-report binomial noise
		// out (a single end-of-stream report covers only a handful of
		// packets).
		alpha, th, n := meanWindow(sum.Trace, lossyFrames/2, lossyFrames)
		if n == 0 {
			t.Errorf("lossy session %d: no post-feedback trace points in the late window", sum.ID)
			continue
		}
		if alpha < 0.12 {
			t.Errorf("lossy session %d: late-window α̂ = %.3f not tracking injected %.2f",
				sum.ID, alpha, lossRate)
		}
		if th <= 0 || th >= 1 {
			t.Errorf("lossy session %d: late-window Intra_Th = %.3f outside (0, 1)", sum.ID, th)
		}
	}
	if lossySeen != lossySessions {
		t.Errorf("found %d lossy summaries, want %d", lossySeen, lossySessions)
	}

	snap := srv.Registry().Snapshot()
	if got := snap["server.sessions_completed"]; got != float64(total) {
		t.Errorf("server.sessions_completed = %v, want %d", got, total)
	}
	// The thousand quiet sessions must overwhelmingly share encodes:
	// far more fanned-out frames than encodes.
	shared := snap["server.encode_shared_frames"]
	if shared < float64(quietSessions*quietFrames)/2 {
		t.Errorf("server.encode_shared_frames = %v — the quiet cohort did not share encodes", shared)
	}
	encodes := snap["server.encodes"]
	if encodes <= 0 || encodes > float64(total*quietFrames) {
		t.Errorf("server.encodes = %v implausible for %d shared sessions", encodes, total)
	}
	if snap["server.lineage_forks"] < 1 {
		t.Error("no lineage forks despite diverging lossy feedback")
	}
	if snap["server.frame_latency.count"] <= 0 {
		t.Error("server.frame_latency histogram recorded nothing")
	}
	if _, ok := snap["server.frame_latency.p99_us"]; !ok {
		t.Error("server.frame_latency.p99_us missing from snapshot")
	}
	for name := range snap {
		if strings.HasPrefix(name, "s") && !strings.HasPrefix(name, "server.") {
			t.Errorf("per-session metric %q leaked past session end", name)
		}
	}

	waitGoroutines(t, before+2)
}

// TestLoadShedOverload drives the farm past its backlog — one worker,
// a one-job backlog and many unshareable lineages — and asserts the
// shedding contract: deferrals are counted, the overloaded flag trips,
// and new hellos are rejected with an overload reason while admitted
// sessions keep streaming.
func TestLoadShedOverload(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := New(Config{
		Addr:        "127.0.0.1:0",
		MaxSessions: 32,
		FarmWorkers: 1,
		FarmBacklog: 1,
		// Distinct QPs cannot share, so the window only holds every
		// lineage at frame 0 until all eight streams are admitted:
		// otherwise the first few saturate the farm and shed the rest
		// of the test's own streams at admission.
		CohortWindow: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Eight distinct QPs → eight lineages that cannot share, all
	// unpaced, against a one-deep farm: every scheduling pass defers.
	const streams = 8
	done := make(chan error, streams)
	for c := 0; c < streams; c++ {
		cfg := ClientConfig{
			Server:      srv.Addr().String(),
			Frames:      100000,
			QP:          8 + c,
			ReportEvery: 8,
			IdleTimeout: 30 * time.Second,
		}
		go func() {
			_, err := RunClient(ctx, cfg)
			done <- err
		}()
	}
	for i := 0; i < 200; i++ {
		if srv.ActiveSessions() == streams {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.ActiveSessions(); got != streams {
		t.Fatalf("only %d/%d streams admitted", got, streams)
	}

	// The farm is now saturated; a new hello must be shed with the
	// overload reason (not capacity — the session table has room).
	var rej *RejectedError
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, err := RunClient(ctx, ClientConfig{Server: srv.Addr().String(), Frames: 5})
		if errors.As(err, &rej) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe client was never rejected (last: %v)", err)
		}
	}
	if !strings.Contains(rej.Reason, "overloaded") {
		t.Fatalf("rejection reason %q does not mention overload", rej.Reason)
	}

	snap := srv.Registry().Snapshot()
	if snap["server.loadshed_deferrals"] < 1 {
		t.Error("no load-shed deferrals counted under saturation")
	}
	if snap["server.loadshed_rejects"] < 1 {
		t.Error("no load-shed rejects counted")
	}
	if snap["server.overloaded"] != 1 {
		t.Errorf("server.overloaded = %v, want 1 while saturated", snap["server.overloaded"])
	}
	// Admitted sessions must still be making progress while shedding.
	progressed := false
	for i := 0; i < 100 && !progressed; i++ {
		s := srv.Registry().Snapshot()
		if s["server.encodes"] > 20 {
			progressed = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !progressed {
		t.Error("admitted sessions stalled while shedding")
	}

	cancel() // clients send byes and drain
	for i := 0; i < streams; i++ {
		<-done
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitGoroutines(t, before+2)
}

// dialSession is the in-package test clients' handshake: dial the
// server, send hellos until an accept or reject arrives (at most
// attempts of them, each waiting 2s), and return the connected socket,
// the session id and how many hellos were retransmissions. A reject is
// an error carrying the server's reason.
func dialSession(server string, h hello, attempts int) (conn *net.UDPConn, id uint32, retransmits int, err error) {
	raddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return nil, 0, 0, err
	}
	if conn, err = net.DialUDP("udp", nil, raddr); err != nil {
		return nil, 0, 0, err
	}
	buf := make([]byte, 2048)
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			retransmits++
		}
		if _, err := conn.Write(appendHello(nil, h)); err != nil {
			conn.Close()
			return nil, 0, retransmits, err
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break // timeout: retransmit the hello
			}
			if n > 0 && buf[0] == msgAccept {
				if id, _, err = parseAccept(buf[:n]); err != nil {
					conn.Close()
					return nil, 0, retransmits, err
				}
				return conn, id, retransmits, nil
			}
			if n > 0 && buf[0] == msgReject {
				reason, _ := parseReject(buf[:n])
				conn.Close()
				return nil, 0, retransmits, fmt.Errorf("test client rejected: %s", reason)
			}
		}
	}
	conn.Close()
	return nil, 0, retransmits, fmt.Errorf("test client: no accept after %d hellos", attempts)
}

// rawStream is a minimal in-package receiver that records the exact
// media packets of one session, keyed by frame — the instrument for
// proving shared-lineage streams are bit-identical to solo ones. It
// sends no reports, so its session's knob trajectory stays at the
// frame-0 values. Safe to call from helper goroutines (errors are
// returned, not asserted).
func rawStream(server string, frames int) (map[int][]network.Packet, error) {
	conn, id, _, err := dialSession(server, hello{Frames: frames, Regime: synth.RegimeForeman, ReportEvery: 0}, 3)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	defer conn.Write(appendBye(nil, id))

	buf := make([]byte, 65536)
	got := make(map[int][]network.Packet)
	record := func(pkt network.Packet) { got[pkt.FrameNum] = append(got[pkt.FrameNum], pkt) }
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, fmt.Errorf("raw client read: %w", err)
		}
		if n == 0 {
			continue
		}
		switch buf[0] {
		case msgMedia:
			sid, pkt, err := parseMedia(buf[:n])
			if err == nil && sid == id {
				record(pkt)
			}
		case msgCoalesced:
			sid, pkts, err := parseCoalesced(nil, buf[:n])
			if err == nil && sid == id {
				for _, pkt := range pkts {
					record(pkt)
				}
			}
		case msgEnd:
			if sid, _, ok := parseEnd(buf[:n]); ok && sid == id {
				return got, nil
			}
		}
	}
}

// frameHashes reduces a recorded stream to one hash per frame over the
// canonical wire encodings, sorted by sequence number so arrival
// interleaving cannot affect the digest.
func frameHashes(frames int, got map[int][]network.Packet) ([]string, error) {
	out := make([]string, frames)
	for f := 0; f < frames; f++ {
		pkts := got[f]
		if len(pkts) == 0 {
			return nil, fmt.Errorf("frame %d: no packets recorded (loopback dropped?)", f)
		}
		sort.Slice(pkts, func(i, j int) bool { return pkts[i].Seq < pkts[j].Seq })
		h := sha256.New()
		for _, p := range pkts {
			h.Write(p.AppendWire(nil))
		}
		out[f] = fmt.Sprintf("%x", h.Sum(nil))
	}
	return out, nil
}

// hashedStream runs rawStream + frameHashes as one step.
func hashedStream(server string, frames int) ([]string, error) {
	got, err := rawStream(server, frames)
	if err != nil {
		return nil, err
	}
	return frameHashes(frames, got)
}

// TestSharedLineageByteIdentical is the correctness proof behind the
// farm's whole premise: a receiver served from a three-member shared
// lineage gets the byte-for-byte same stream — packet payloads, FECless
// sequence numbering, frame boundaries — as a receiver served solo by a
// fresh server. It also pins that the shared run actually shared
// (encodes ≈ frames, not members × frames).
func TestSharedLineageByteIdentical(t *testing.T) {
	const frames = 20

	shared, err := New(Config{
		Addr:         "127.0.0.1:0",
		MaxSessions:  8,
		CohortWindow: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		hashes []string
		err    error
	}
	streams := make(chan run, 3)
	for c := 0; c < 3; c++ {
		go func() {
			hashes, err := hashedStream(shared.Addr().String(), frames)
			streams <- run{hashes, err}
		}()
	}
	var sharedRuns [][]string
	for i := 0; i < 3; i++ {
		r := <-streams
		if r.err != nil {
			t.Fatalf("shared member stream: %v", r.err)
		}
		sharedRuns = append(sharedRuns, r.hashes)
	}
	ctx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShutdown()
	if err := shared.Shutdown(ctx); err != nil {
		t.Fatalf("shared server shutdown: %v", err)
	}
	snap := shared.Registry().Snapshot()
	if enc := snap["server.encodes"]; enc != frames {
		t.Errorf("shared run used %v encodes for %d frames × 3 members — lineage did not share", enc, frames)
	}
	if snap["server.encode_shared_frames"] != float64(2*frames) {
		t.Errorf("server.encode_shared_frames = %v, want %d", snap["server.encode_shared_frames"], 2*frames)
	}

	solo, err := New(Config{Addr: "127.0.0.1:0", MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	soloHashes, err := hashedStream(solo.Addr().String(), frames)
	if err != nil {
		t.Fatalf("solo stream: %v", err)
	}
	if err := solo.Shutdown(context.Background()); err != nil {
		t.Fatalf("solo server shutdown: %v", err)
	}

	for f := 0; f < frames; f++ {
		for i, r := range sharedRuns {
			if r[f] != soloHashes[f] {
				t.Fatalf("frame %d: shared member %d stream diverges from solo stream", f, i)
			}
		}
	}
}
