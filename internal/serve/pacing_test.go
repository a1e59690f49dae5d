package serve

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// TestPacingRule pins the capture-clock grid: on-time dispatches step
// along it, the first dispatch anchors it, a dispatch a whole slot late
// re-anchors it without bursting, unpaced lineages are always due and
// always "slipped", and a merge keeps the earlier grid.
func TestPacingRule(t *testing.T) {
	const T = 40 * time.Millisecond
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	cases := []struct {
		name       string
		due, now   time.Time
		interval   time.Duration
		first      bool
		wantNext   time.Time
		wantAnchor bool // re-anchored
		wantSlip   bool
	}{
		{"on time steps the grid", at(0), at(0), T, false, at(T), false, false},
		{"late wake-up keeps the grid", at(0), at(3 * time.Millisecond), T, false, at(T), false, false},
		{"just under a slot keeps the grid", at(0), at(T - 1), T, false, at(T), false, false},
		{"first dispatch anchors at now", at(0), at(5 * time.Millisecond), T, true, at(5*time.Millisecond + T), false, false},
		{"first dispatch a slot late anchors, not re-anchors", at(0), at(2 * T), T, true, at(3 * T), false, true},
		{"one whole slot late re-anchors", at(0), at(T), T, false, at(2 * T), true, true},
		{"many slots late re-anchors without burst", at(0), at(5*T + 7*time.Millisecond), T, false, at(6*T + 7*time.Millisecond), true, true},
		{"unpaced keeps its due time", at(0), at(9 * time.Millisecond), 0, false, at(0), false, true},
		{"unpaced first dispatch", at(0), at(0), 0, true, at(0), false, true},
	}
	for _, c := range cases {
		next, anchored := advanceDue(c.due, c.now, c.interval, c.first)
		if !next.Equal(c.wantNext) || anchored != c.wantAnchor {
			t.Errorf("%s: advanceDue = (%v, %v), want (%v, %v)", c.name,
				next.Sub(t0), anchored, c.wantNext.Sub(t0), c.wantAnchor)
		}
		if !next.After(c.now) && c.interval > 0 {
			t.Errorf("%s: next due %v is not after the dispatch — the lineage would burst", c.name, next.Sub(t0))
		}
		if got := slipped(c.due, c.now, c.interval); got != c.wantSlip {
			t.Errorf("%s: slipped = %v, want %v", c.name, got, c.wantSlip)
		}
	}

	if got := mergedDue(at(T), at(T/2)); !got.Equal(at(T / 2)) {
		t.Errorf("merge kept %v, want the earlier due %v", got.Sub(t0), T/2)
	}
	if got := mergedDue(at(T/2), at(T)); !got.Equal(at(T / 2)) {
		t.Errorf("merge kept %v, want the earlier due %v", got.Sub(t0), T/2)
	}
}

// frameArrivals receives one session on conn until its End and returns
// when the first datagram of each frame arrived (zero for a frame that
// never did).
func frameArrivals(conn *net.UDPConn, id uint32, frames int) ([]time.Time, error) {
	arrivals := make([]time.Time, frames)
	seen := func(f int, now time.Time) {
		if f >= 0 && f < frames && arrivals[f].IsZero() {
			arrivals[f] = now
		}
	}
	buf := make([]byte, 65536)
	var batch []network.Packet
	conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, fmt.Errorf("paced client read: %w", err)
		}
		now := time.Now()
		if n == 0 {
			continue
		}
		switch buf[0] {
		case msgMedia:
			if sid, pkt, err := parseMedia(buf[:n]); err == nil && sid == id {
				seen(pkt.FrameNum, now)
			}
		case msgCoalesced:
			sid, pkts, err := parseCoalesced(batch[:0], buf[:n])
			batch = pkts
			if err == nil && sid == id {
				for _, pkt := range pkts {
					seen(pkt.FrameNum, now)
				}
			}
		case msgEnd:
			if sid, _, ok := parseEnd(buf[:n]); ok && sid == id {
				return arrivals, nil
			}
		}
	}
}

// TestPacedSessionHoldsCaptureClock is the end-to-end proof of the
// grid: over a long paced session, dispatch slip must not accumulate,
// so the last frame arrives within two intervals of where the first
// frame's arrival says it should (k·T later). Scheduling each frame
// from the previous dispatch instead drifts by the slip of every frame.
// A stall of a whole interval (a loaded test host) legitimately moves
// the grid by one slot and is counted as a re-anchor, so each one
// widens the bound by an interval.
func TestPacedSessionHoldsCaptureClock(t *testing.T) {
	interval, frames := 10*time.Millisecond, 200
	if raceEnabled {
		interval, frames = 40*time.Millisecond, 50 // slower encodes, same span
	}
	srv, err := New(Config{Addr: "127.0.0.1:0", MaxSessions: 1, FrameInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, id, _, err := dialSession(srv.Addr().String(), hello{Frames: frames, Regime: synth.RegimeForeman}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	arrivals, err := frameArrivals(conn, id, frames)
	if err != nil {
		t.Fatal(err)
	}
	for f, a := range arrivals {
		if a.IsZero() {
			t.Fatalf("frame %d never arrived", f)
		}
	}
	snap := srv.Registry().Snapshot()
	late := arrivals[frames-1].Sub(arrivals[0]) - time.Duration(frames-1)*interval
	reanchors := snap["server.pacing_reanchors"]
	if bound := time.Duration(2+reanchors) * interval; late >= bound {
		t.Errorf("frame %d arrived %v behind the first-frame anchor (want < %v); dispatch slip p99 %vµs, %v re-anchors",
			frames-1, late, bound, snap["server.dispatch_slip.p99_us"], reanchors)
	}
	if reanchors > float64(frames/10) {
		t.Errorf("server.pacing_reanchors = %v over %d frames: the grid keeps slipping whole slots", reanchors, frames)
	}
	if got := snap["server.dispatch_slip.count"]; got != float64(frames) {
		t.Errorf("server.dispatch_slip.count = %v, want one per dispatch (%d)", got, frames)
	}
}

// TestPacedAlignedLineagesDoNotShed drives a paced cohort whose lossy
// members fork onto private lineages. Forks inherit their parent's due
// time, so every slot finds more due lineages than a one-job farm
// backlog holds. The farm still keeps up within each frame slot, so
// that is not overload: nothing may be deferred, no hello shed, and
// server.overloaded must stay 0.
func TestPacedAlignedLineagesDoNotShed(t *testing.T) {
	// The interval leaves the one worker several times the slot's
	// encode work, so only a stall of a whole interval could defer.
	const sessions = 6
	interval, frames := 100*time.Millisecond, 30
	if raceEnabled {
		interval, frames = 250*time.Millisecond, 16
	}
	srv, err := New(Config{
		Addr:            "127.0.0.1:0",
		MaxSessions:     sessions,
		FrameInterval:   interval,
		CohortWindow:    300 * time.Millisecond,
		FarmWorkers:     1,
		FarmBacklog:     1,
		EstimatorWeight: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errs := make(chan error, sessions)
	for c := 0; c < sessions; c++ {
		cfg := ClientConfig{
			Server:      srv.Addr().String(),
			Frames:      frames,
			Regime:      synth.RegimeForeman,
			ReportEvery: 2,
			Drop:        ConstLoss(0.3),
			Seed:        uint64(500 + c),
		}
		go func() {
			_, err := RunClient(ctx, cfg)
			errs <- err
		}()
	}
	for c := 0; c < sessions; c++ {
		if err := <-errs; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	snap := srv.Registry().Snapshot()
	if snap["server.lineage_forks"] < 2 {
		t.Fatalf("server.lineage_forks = %v: too few aligned lineages to exceed the backlog", snap["server.lineage_forks"])
	}
	for _, name := range []string{"server.loadshed_deferrals", "server.loadshed_rejects", "server.overloaded"} {
		if snap[name] != 0 {
			t.Errorf("%s = %v, want 0: aligned lineages inside their frame slot are not overload", name, snap[name])
		}
	}
}
