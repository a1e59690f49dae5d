package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"syscall"
	"time"

	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// The benchmark's own receiver. It speaks the serving layer's datagram
// protocol (internal/serve/wire.go, version 3) directly, because it
// must timestamp every datagram, which serve.RunClient does not expose.

const (
	protocolVersion = 3
	mediaHeaderLen  = 1 + 4 + 8 // type, session id, send stamp (unix µs)
	reportEvery     = 8         // frames per receiver report
	idleTimeout     = 5 * time.Second
	helloTimeout    = 2 * time.Second
	shedRetries     = 3
	shedRetryDelay  = 40 * time.Millisecond
)

// sessionPlan is one generated session.
type sessionPlan struct {
	at     time.Duration // hello offset from the phase start
	regime synth.Regime
	qp     int
	frames int
	drop   float64 // injected receiver-side loss probability
	cohort int     // sessions of one cohort must receive identical streams
	seed   uint64  // drives the injected loss
}

// sessionResult is what one session observed. Times are offsets from
// the phase start.
type sessionResult struct {
	plan      sessionPlan
	genLate   time.Duration // hello sent minus hello scheduled
	hello     time.Duration
	accept    time.Duration // 0 when never accepted
	first     time.Duration // first media datagram, 0 when none
	end       time.Duration
	rejected  string
	err       error
	gotEnd    bool
	endFrames int
	arrivals  []time.Duration // first datagram of each frame, -1 = never arrived
	e2eUS     []float64       // per media datagram: receive clock minus send stamp
	digest    uint64          // payload stream hash
}

func (r *sessionResult) delivered() int {
	n := 0
	for _, a := range r.arrivals {
		if a >= 0 {
			n++
		}
	}
	return n
}

// frameSample: in traced runs, one in this many frames of each session
// is recorded as a client.frame span.
const frameSample = 16

// runSession sends the plan's hello at its scheduled time relative to
// t0 (the caller sleeps until then), receives the whole stream, and
// records what arrived. In traced runs it records the session's spans.
func runSession(server *net.UDPAddr, p sessionPlan, t0 time.Time, tr *tracer) *sessionResult {
	r := &sessionResult{plan: p, arrivals: make([]time.Duration, p.frames), e2eUS: make([]float64, 0, 2*p.frames)}
	for i := range r.arrivals {
		r.arrivals[i] = -1
	}
	conn, err := net.DialUDP("udp", nil, server)
	if err != nil {
		r.err = err
		return r
	}
	defer conn.Close()
	r.hello = time.Since(t0)
	r.genLate = r.hello - p.at
	id, err := handshake(conn, p, r)
	// A hello refused by load shedding is retried, as a player would;
	// admission latency keeps counting from the first hello.
	for try := 0; try < shedRetries && err == nil && strings.Contains(r.rejected, "overloaded"); try++ {
		time.Sleep(shedRetryDelay)
		r.rejected = ""
		id, err = handshake(conn, p, r)
	}
	if err != nil || r.rejected != "" {
		r.err = err
		return r
	}
	r.accept = time.Since(t0)
	root, stream := tr.newID(), tr.newID()
	err = receive(conn, id, p, t0, r, tr, stream, root)
	if err != nil {
		r.err = err
	}
	r.end = time.Since(t0)
	if tr != nil {
		at := func(d time.Duration) time.Time { return t0.Add(d) }
		tr.record(root, 0, 0, "serve.session", at(r.hello), at(r.end))
		tr.record(0, root, root, "serve.admit", at(r.hello), at(r.accept))
		if r.first > 0 {
			tr.record(0, root, root, "serve.first_frame", at(r.accept), at(r.first))
			tr.record(stream, root, root, "client.stream", at(r.first), at(r.end))
		}
	}
	return r
}

// handshake sends hellos until an accept or reject arrives (three
// attempts, as serve.RunClient makes).
func handshake(conn *net.UDPConn, p sessionPlan, r *sessionResult) (uint32, error) {
	hello := []byte{'H', protocolVersion, 0, 0, 0, 0, byte(p.regime), byte(p.qp), reportEvery, 0, 0}
	binary.BigEndian.PutUint32(hello[2:6], uint32(p.frames))
	buf := make([]byte, 2048)
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := conn.Write(hello); err != nil {
			return 0, fmt.Errorf("hello: %w", err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(helloTimeout)); err != nil {
			return 0, err
		}
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break // timeout: send the hello again
			}
			switch {
			case n >= 9 && buf[0] == 'A':
				return binary.BigEndian.Uint32(buf[1:5]), nil
			case n >= 2 && buf[0] == 'J' && n >= 2+int(buf[1]):
				r.rejected = string(buf[2 : 2+int(buf[1])])
				return 0, nil
			}
		}
	}
	return 0, errors.New("no accept after 3 hellos")
}

// receive runs the media/report loop until the session's End arrives.
func receive(conn *net.UDPConn, id uint32, p sessionPlan, t0 time.Time, r *sessionResult,
	tr *tracer, stream, root uint64) error {
	var mon network.LossMonitor
	rng := splitmix(p.seed)
	h := fnv.New64a()
	var lastE2E uint32
	cur, flushed := -1, 0
	report := func() {
		b := make([]byte, 19)
		b[0] = 'R'
		binary.BigEndian.PutUint32(b[1:5], id)
		binary.BigEndian.PutUint16(b[5:7], uint16(min(1000, int(mon.Rate()*1000))))
		binary.BigEndian.PutUint32(b[7:11], uint32(mon.Received()))
		binary.BigEndian.PutUint32(b[11:15], uint32(mon.Lost()))
		binary.BigEndian.PutUint32(b[15:19], lastE2E)
		lastE2E = 0
		mon.Reset()
		// A lost report only delays the server's estimate; the next
		// interval's report carries on.
		_, _ = conn.Write(b)
	}
	packet := func(pkt network.Packet, now time.Duration, stamp int64) {
		if f := pkt.FrameNum; f >= 0 && f < len(r.arrivals) && r.arrivals[f] < 0 {
			r.arrivals[f] = now
			if tr != nil && f%frameSample == 0 {
				tr.record(0, stream, root, "client.frame", time.UnixMicro(stamp), t0.Add(now))
			}
		}
		if !pkt.IsParity() {
			var fn [4]byte
			binary.BigEndian.PutUint32(fn[:], uint32(pkt.FrameNum))
			h.Write(fn[:])
			h.Write(pkt.Payload)
		}
		// Injected loss happens after delivery is recorded, so it is
		// invisible to the lateness and failure accounting but looks
		// like wire loss to the server.
		if p.drop > 0 && rng.float64() < p.drop {
			return
		}
		if !pkt.IsParity() {
			mon.Observe(pkt.Seq)
		}
		if pkt.FrameNum != cur {
			if cur < 0 {
				cur = pkt.FrameNum
			}
			for ; cur < pkt.FrameNum; cur++ {
				if flushed++; flushed%reportEvery == 0 {
					report()
				}
			}
		}
	}

	// Media datagrams are bounded by the server's MTU plus coalescing
	// slack (serve.Config.CoalesceBytes); a larger one would fail to
	// parse and fail the session.
	buf := make([]byte, 4096)
	var batch []network.Packet
	for {
		if err := conn.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
			return err
		}
		n, err := conn.Read(buf)
		wall := time.Now()
		now := wall.Sub(t0)
		if err != nil {
			// A connected socket surfaces an ICMP port-unreachable as
			// ECONNREFUSED before datagrams already queued; keep reading.
			if errors.Is(err, syscall.ECONNREFUSED) {
				continue
			}
			return fmt.Errorf("receive after %d frames: %w", r.delivered(), err)
		}
		if n == 0 {
			continue
		}
		b := buf[:n]
		switch b[0] {
		case 'M', 'C':
			if n < mediaHeaderLen || binary.BigEndian.Uint32(b[1:5]) != id {
				continue
			}
			stamp := int64(binary.BigEndian.Uint64(b[5:13]))
			if d := wall.UnixMicro() - stamp; d >= 0 {
				r.e2eUS = append(r.e2eUS, float64(d))
				lastE2E = uint32(max(1, min(d, int64(^uint32(0)))))
			}
			if r.first == 0 {
				r.first = now
			}
			if b[0] == 'M' {
				pkt, err := network.ParseWire(b[mediaHeaderLen:])
				if err != nil {
					return fmt.Errorf("media datagram: %w", err)
				}
				packet(pkt, now, stamp)
				continue
			}
			if batch, err = network.ParseWireBatch(batch[:0], b[mediaHeaderLen:]); err != nil {
				return fmt.Errorf("coalesced datagram: %w", err)
			}
			for _, pkt := range batch {
				packet(pkt, now, stamp)
			}
		case 'E':
			if n < 9 || binary.BigEndian.Uint32(b[1:5]) != id {
				continue
			}
			r.gotEnd = true
			r.endFrames = int(binary.BigEndian.Uint32(b[5:9]))
			r.digest = h.Sum64()
			report() // the final interval, so the server's books balance
			bye := []byte{'B', 0, 0, 0, 0}
			binary.BigEndian.PutUint32(bye[1:], id)
			_, _ = conn.Write(bye) // the session is over either way
			return nil
		}
	}
}

// rng is splitmix64: a seeded, reproducible stream of uniform floats.
type rng struct{ s uint64 }

func splitmix(seed uint64) *rng { return &rng{s: seed} }

func (g *rng) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *rng) float64() float64 { return float64(g.next()>>11) / (1 << 53) }

// intn returns a uniform integer in [0, n).
func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }
