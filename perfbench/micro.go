package main

import (
	"sort"
	"time"

	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Per-layer micro-timings on the workload's own traffic: the frames the
// traced run transmitted are replayed through each layer's exported
// functions, and the scheduler is timed at the workload's heap depth.

const (
	microBatch  = 20 * time.Millisecond // minimum wall time of one timed batch
	microFrames = 2000                  // captured frames replayed per micro-timing
)

// nsPer times fn, which performs units operations, in five batches of at
// least microBatch each and returns the median nanoseconds per operation.
func nsPer(units int, fn func()) float64 {
	if units == 0 {
		return 0
	}
	var per []float64
	for b := 0; b < 5; b++ {
		reps := 0
		t0 := time.Now()
		for time.Since(t0) < microBatch {
			fn()
			reps++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(reps*units))
	}
	sort.Float64s(per)
	return per[2]
}

var sink int // keeps timed results alive

// parsed is one replayed frame's header fields.
type parsed struct {
	frame   []byte
	ip      wire.IPv4Header
	l4      []byte // transport header onward
	tcp     bool
	srcPort uint16
	dstPort uint16
}

func parseFrame(f []byte) (parsed, bool) {
	p := parsed{frame: f}
	eth, err := wire.UnmarshalEth(f)
	if err != nil || eth.Type != wire.EtherTypeIPv4 || len(f) < wire.EthHeaderLen {
		return p, false
	}
	ip, hl, err := wire.UnmarshalIPv4(f[wire.EthHeaderLen:])
	if err != nil {
		return p, false
	}
	p.ip, p.l4 = ip, f[wire.EthHeaderLen+hl:]
	switch ip.Proto {
	case wire.ProtoTCP:
		h, _, err := wire.UnmarshalTCP(p.l4)
		if err != nil {
			return p, false
		}
		p.tcp, p.srcPort, p.dstPort = true, h.SrcPort, h.DstPort
	case wire.ProtoUDP:
		h, err := wire.UnmarshalUDP(p.l4)
		if err != nil {
			return p, false
		}
		p.srcPort, p.dstPort = h.SrcPort, h.DstPort
	}
	return p, true
}

// microTimings fills the host-time per-layer metrics from the frames the
// run captured.
func (r *run) microTimings() {
	frames := r.frames
	if len(frames) > microFrames { // an evenly spaced sample of the capture
		sample := make([][]byte, microFrames)
		for i := range sample {
			sample[i] = frames[i*len(frames)/microFrames]
		}
		frames = sample
	}
	var ps []parsed
	for _, f := range frames {
		if p, ok := parseFrame(f); ok {
			ps = append(ps, p)
		}
	}
	r.layer["wire.parse_ns_per_frame"] = nsPer(len(frames), func() {
		for _, f := range frames {
			if p, ok := parseFrame(f); ok {
				sink += int(p.srcPort)
			}
		}
	})

	// The workload's 5-tuple demux programs: each TCP frame runs the
	// program compiled for its own connection endpoint, the accept path a
	// session's filter takes for every frame it receives.
	type demuxCase struct {
		frame []byte
		prog  filter.Program
	}
	progs := map[filter.MatchSpec]filter.Program{}
	var cases []demuxCase
	for _, p := range ps {
		if !p.tcp {
			continue
		}
		spec := filter.MatchSpec{Proto: wire.ProtoTCP, LocalIP: p.ip.Dst, LocalPort: p.dstPort,
			RemoteIP: p.ip.Src, RemotePort: p.srcPort}
		prog, ok := progs[spec]
		if !ok {
			prog = filter.Compile(spec)
			progs[spec] = prog
		}
		cases = append(cases, demuxCase{p.frame, prog})
	}
	demux := func() int {
		total := 0
		for _, c := range cases {
			_, n := c.prog.Run(c.frame)
			total += n
		}
		return total
	}
	r.layer["filter.examined_per_frame"] = ratio(float64(demux()), float64(len(cases)))
	r.layer["filter.run_ns_per_frame"] = nsPer(len(cases), func() { sink += demux() })

	kb := 0
	for _, f := range frames {
		kb += len(f)
	}
	r.layer["wire.checksum_ns_per_kb"] = nsPer(1, func() {
		var c wire.Checksummer
		for _, f := range frames {
			c.Add(f)
		}
		sink += int(c.Sum())
	}) * 1024 / float64(kb)
	r.layer["wire.fixup_ns"] = nsPer(len(ps), func() {
		for _, p := range ps {
			sink += int(wire.ChecksumFixup(p.ip.Checksum, p.ip.Src[:], p.ip.Dst[:]))
		}
	})
	r.layer["mbuf.alloc_release_ns"] = nsPer(len(frames), func() {
		for _, f := range frames {
			c := mbuf.Alloc(len(f))
			c.Release()
		}
	})
	r.layer["dataplane.ingress_ns_per_frame"] = r.planeIngress(frames)
	r.layer["sim.proc_switch_ns"] = procSwitch()
	r.layer["sim.timer_event_ns"] = timerEvent(r.heap)
}

// planeIngress replays the frames through a standalone data plane with
// vip's VIP installed: VIP traffic takes the conntrack/NAT path, other
// workloads' traffic the miss path.
func (r *run) planeIngress(frames [][]byte) float64 {
	if len(frames) == 0 {
		return 0
	}
	lbIP, lbMAC := wire.IP(10, 0, 0, 2), wire.MAC{2, 0, 0, 0, 0, 1}
	p := dataplane.New(dataplane.Config{Sim: sim.New(r.seed), Name: "lb", LocalIP: lbIP, LocalMAC: lbMAC,
		Transmit: func([]byte) error { return nil }})
	var backends []dataplane.Backend
	for b := 0; b < vipBackends; b++ {
		backends = append(backends, dataplane.Backend{Name: "be" + string(rune('0'+b)),
			IP: wire.IP(10, 0, 1, byte(b+1)), Port: backendPort, MAC: wire.MAC{2, 0, 0, 0, 0, byte(b + 2)}, Alive: true})
	}
	if _, err := p.InstallVIP(wire.IP(10, 0, 0, 100), vipPort, backends); err != nil {
		fatalf("standalone plane: %v", err)
	}
	buf := make([]byte, 2048)
	return nsPer(len(frames), func() {
		for _, f := range frames {
			n := copy(buf, f) // Ingress may rewrite in place
			out, _ := p.Ingress(buf[:n])
			sink += len(out)
		}
	})
}

// procSwitch times one sim.Proc sleep and resume.
func procSwitch() float64 {
	const n = 20000
	return nsPer(n, func() {
		s := sim.New(1)
		s.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		if err := s.Run(); err != nil {
			fatalf("proc switch: %v", err)
		}
	})
}

// timerEvent times one timer dispatch with depth standing timers in the
// event heap.
func timerEvent(depth int) float64 {
	const n = 20000
	s := sim.New(1)
	for i := 0; i < depth; i++ {
		s.At(sim.Time(time.Hour)+sim.Time(i), func() {})
	}
	return nsPer(n, func() {
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				s.After(time.Microsecond, tick)
			}
		}
		s.After(time.Microsecond, tick)
		if err := s.RunFor(time.Duration(n+1) * time.Microsecond); err != nil {
			fatalf("timer event: %v", err)
		}
	})
}
