package serve

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// BenchmarkServeThroughput measures end-to-end served frames per second
// through the full stack — encode, packetise, UDP loopback, receiver
// reports, controller retune — with pacing off so the pipeline runs at
// CPU speed. One session per iteration batch; the number is what a
// single unpaced session can sustain, not an aggregate across sessions.
func BenchmarkServeThroughput(b *testing.B) {
	srv, err := New(Config{
		Addr:          "127.0.0.1:0",
		FrameInterval: 0, // unpaced: measure the pipeline, not the clock
		QueueFrames:   256,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	b.ResetTimer()
	sum, err := RunClient(ctx, ClientConfig{
		Server:      srv.Addr().String(),
		Frames:      b.N,
		Regime:      synth.RegimeForeman,
		ReportEvery: 8,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if sum.FramesFlushed != b.N {
		b.Fatalf("flushed %d/%d frames", sum.FramesFlushed, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(float64(sum.Bytes)/b.Elapsed().Seconds()/1e6, "MB/s")
}

// BenchmarkServeFarm measures aggregate served frames per second with
// eight identical no-loss receivers sharing one lineage — the farm's
// headline configuration: one encode per frame fanned out eight ways
// over the batched send path. The p50/p99 figures are the server's
// scheduling→wire frame-latency histogram over the run. Compare with
// BenchmarkServeThroughput (one session, same pipeline) for the
// sharing multiplier; BENCH_serve.json commits both.
func BenchmarkServeFarm(b *testing.B) {
	const clients = 8
	srv, err := New(Config{
		Addr:          "127.0.0.1:0",
		MaxSessions:   clients,
		FrameInterval: 0, // unpaced: measure the pipeline, not the clock
		QueueFrames:   256,
		CohortWindow:  100 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	type result struct {
		sum *ClientSummary
		err error
	}
	results := make(chan result, clients)
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		go func() {
			sum, err := RunClient(ctx, ClientConfig{
				Server:      srv.Addr().String(),
				Frames:      b.N,
				Regime:      synth.RegimeForeman,
				ReportEvery: 8,
			})
			results <- result{sum, err}
		}()
	}
	var bytes int64
	for i := 0; i < clients; i++ {
		r := <-results
		if r.err != nil {
			b.Fatal(r.err)
		}
		if r.sum.FramesFlushed != b.N {
			b.Fatalf("client flushed %d/%d frames", r.sum.FramesFlushed, b.N)
		}
		bytes += r.sum.Bytes
	}
	b.StopTimer()

	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(clients*b.N)/sec, "frames/s")
	b.ReportMetric(float64(bytes)/sec/1e6, "MB/s")
	snap := srv.Registry().Snapshot()
	b.ReportMetric(snap["server.frame_latency.p50_us"], "p50_us")
	b.ReportMetric(snap["server.frame_latency.p99_us"], "p99_us")
}

// BenchmarkServeFarm10k is the scale figure: ten thousand reporting
// receivers (plus blip clients that fork off and re-merge mid-run)
// against one four-worker farm. Every client sends a loss report per
// frame, so the receive path sees the full feedback torrent of a real
// fleet — which is what the datagrams_per_syscall figure measures:
// inbound datagrams per recvmmsg(2) wakeup. frames/s is End-confirmed
// frames across the whole fleet over the wall clock of the complete
// run (launch, cohort formation, streaming, teardown) — the honest
// aggregate, not a steady-state cherry-pick. The committed floors in
// the Makefile gate frames/s, batching and the fork→re-merge
// lifecycle (lineage_merges ≥ 1).
//
// The lineage_merges gate is driven by a small dedicated choreography
// cohort (distinct cohort key, so it never shares a lineage with the
// fleet) that streams while the fleet is still in its hello wave:
// under the full report storm the server's receive buffer sheds
// datagrams, and a blip whose reports ride the storm forks only
// probabilistically — fine as extra load, useless as a pass/fail
// gate. The in-storm blipStream clients stay in the run for exactly
// that reason: they hammer fork admission under overload, and any
// forks/merges they land are gravy on top of the choreography
// cohort's guaranteed ones.
// blipStream is the 10k benchmark's fork-and-recover client: a drain
// receiver that reports a loss blip (α̂ seeds to one quantum → its
// lineage forks) and then reports recovery on a timer so the fork goes
// quiescent within one frame window and re-merges. Timer-based zeros
// matter: under full fanout load the *delivery* of the next frame can
// lag the 60ms pacing by worse than a window, and a recovery keyed to
// reception would arrive after the fork had already encoded a second
// divergent frame, making the merge impossible. Every report is also
// retransmitted — the server's receive buffer sheds datagrams under
// the fleet's report storm, and a lost blip (or recovery) quietly
// kills the fork→re-merge choreography this client exists to drive.
//
// trigger is the received frame that fires the blip, and delay
// staggers it relative to that frame's arrival. Every member of a
// lineage is fanned a frame in the same batch, so without spreading,
// all the fork-eligible windows coincide — one unlucky partition-pass
// alignment (or one receive-buffer overflow burst, which arrives in
// lockstep with each frame's report wave) silences every blip at
// once. Spread across trigger frames and sub-frame offsets, the
// windows tile several frame intervals and some client always forks.
func blipStream(server string, frames, trigger int, delay time.Duration) (int, error) {
	conn, id, _, err := dialSession(server, hello{Frames: frames, Regime: synth.RegimeForeman}, 15)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	defer conn.Write(appendBye(nil, id))

	send := func(fraction float64) {
		conn.Write(appendReport(nil, report{
			Session: id, Fraction: fraction, Received: 100, Lost: int64(fraction * 100),
		}))
	}
	blipped := false
	blip := func() {
		blipped = true
		// Seed the blip as a burst of four copies (idempotent: the EMA
		// of a repeated value is the value) spread across the first
		// frame window — the fleet's report wave arrives in lockstep
		// with each fanout and overflows the receive buffer for a few
		// milliseconds, so a single copy is a coin flip. Then recover
		// with zeros every 30ms, starting late enough that a fork at
		// any partition pass inside the blip window still sees a zero
		// before it would encode a second divergent frame.
		for _, after := range []time.Duration{0, 12, 24, 36} {
			time.AfterFunc(delay+after*time.Millisecond, func() { send(0.01) })
		}
		for _, after := range []time.Duration{50, 80, 110, 140, 170} {
			time.AfterFunc(delay+after*time.Millisecond, func() { send(0) })
		}
	}

	buf := make([]byte, 2048)
	var scratch []network.Packet
	maxFrame := -1
	bump := func(f int) {
		if f <= maxFrame {
			return
		}
		maxFrame = f
		if f >= trigger && !blipped {
			blip()
		}
	}
	conn.SetReadDeadline(time.Now().Add(120 * time.Second))
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return 0, fmt.Errorf("blip client %d read (last frame %d): %w", id, maxFrame, err)
		}
		if n == 0 {
			continue
		}
		switch buf[0] {
		case msgMedia:
			if sid, pkt, err := parseMedia(buf[:n]); err == nil && sid == id {
				bump(pkt.FrameNum)
			}
		case msgCoalesced:
			sid, pkts, err := parseCoalesced(scratch[:0], buf[:n])
			if err == nil && sid == id {
				for _, pkt := range pkts {
					bump(pkt.FrameNum)
				}
			}
			scratch = pkts
		case msgEnd:
			if sid, fr, ok := parseEnd(buf[:n]); ok && sid == id {
				return fr, nil
			}
		}
	}
}

func BenchmarkServeFarm10k(b *testing.B) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const (
		quiet  = 10000
		blips  = 32
		frames = 20
		choreo = 4 // choreography cohort: one quiet member + three blips
	)

	var served int64
	var forks, merges, dgramsPerCall, p50, p99, balance float64
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		srv, err := New(Config{
			Addr:        "127.0.0.1:0",
			MaxSessions: quiet + blips + 64,
			// Lightly paced: the floor keeps frame boundaries wide enough
			// for the blip clients' fork→re-merge choreography — the blip
			// report and its recovery report must land in separate
			// partition passes; fanout to ten thousand members dominates
			// the cost regardless.
			FrameInterval: 60 * time.Millisecond,
			CohortWindow:  2 * time.Second,
			QueueFrames:   32,
			FarmWorkers:   4,
			FarmBacklog:   64,
			RecvBatch:     64,
		})
		if err != nil {
			b.Fatal(err)
		}

		type outcome struct {
			frames int
			err    error
		}
		results := make(chan outcome, quiet+blips+choreo)
		// The choreography cohort goes out first: akiyo against the
		// fleet's foreman, so the cohort key isolates it in its own
		// lineage, and its quiet member is admitted before its blip
		// members so the fork keeps the parent lineage. Its scripted
		// blips (seed α̂ one quantum → fork; one zero → quantise back to
		// 0 → quiesce → merge) land between its own frame boundaries
		// while the fleet is still doing hellos — reliable delivery, so
		// the lineage_merges floor holds every run.
		go func() {
			fr, _, _, err := drainStream(srv.Addr().String(), hello{
				Frames: frames,
				Regime: synth.RegimeAkiyo,
			}, 1)
			results <- outcome{fr, err}
		}()
		time.Sleep(50 * time.Millisecond)
		for _, script := range []map[int]float64{
			{3: 0.01, 4: 0, 6: 0},
			{5: 0.01, 6: 0, 8: 0},
			{7: 0.01, 8: 0, 10: 0},
		} {
			go func() {
				pkts, err := reportingStream(srv.Addr().String(), frames, synth.RegimeAkiyo, script)
				results <- outcome{len(pkts), err}
			}()
		}
		// Hold the fleet back so its cohort window closes — and its
		// report storm begins — only after the choreography cohort's
		// scripted reports are all on the wire (its stream spans roughly
		// [window, window+frames×interval] from now).
		time.Sleep(850 * time.Millisecond)

		// Stagger the launch (like the 10k soak) so the hello storm
		// arrives as a sustained wave rather than one socket-overflowing
		// spike. The blip clients go out early so they land inside the
		// mega-lineage's cohort window.
		stagger := 1500 * time.Millisecond / time.Duration(quiet+blips)
		for i := 0; i < blips; i++ {
			// Spread the blips across three trigger frames and eight
			// sub-frame offsets so their fork-eligible windows tile
			// several hundred milliseconds of the stream — no single
			// partition-pass alignment or receive-buffer overflow burst
			// can silence all of them (see blipStream).
			trigger := 2 + (i%3)*2
			delay := time.Duration(i%8) * 8 * time.Millisecond
			go func() {
				fr, err := blipStream(srv.Addr().String(), frames, trigger, delay)
				results <- outcome{fr, err}
			}()
			time.Sleep(stagger)
		}
		for i := 0; i < quiet; i++ {
			go func() {
				fr, _, _, err := drainStream(srv.Addr().String(), hello{
					Frames: frames,
					Regime: synth.RegimeForeman,
				}, 1)
				results <- outcome{fr, err}
			}()
			time.Sleep(stagger)
		}
		for i := 0; i < quiet+blips+choreo; i++ {
			r := <-results
			if r.err != nil {
				b.Fatal(r.err)
			}
			if r.frames != frames {
				b.Fatalf("client finished %d/%d frames", r.frames, frames)
			}
			served += int64(r.frames)
		}

		snap := srv.Registry().Snapshot()
		forks = snap["server.lineage_forks"]
		merges = snap["server.lineage_merges"]
		if batches := snap["server.recv_batches"]; batches > 0 {
			dgramsPerCall = snap["server.recv_datagrams"] / batches
		}
		p50 = snap["server.frame_latency.p50_us"]
		p99 = snap["server.frame_latency.p99_us"]
		balance = snap["server.shard_rx_balance"]
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
	b.StopTimer()

	b.ReportMetric(float64(served)/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(dgramsPerCall, "datagrams_per_syscall")
	b.ReportMetric(forks, "lineage_forks")
	b.ReportMetric(merges, "lineage_merges")
	b.ReportMetric(p50, "p50_us")
	b.ReportMetric(p99, "p99_us")
	// Min/max ratio of per-shard receive counters: 1 is perfect
	// SO_REUSEPORT spread, 0 means a shard sat idle all run.
	b.ReportMetric(balance, "shard_rx_balance")
}
