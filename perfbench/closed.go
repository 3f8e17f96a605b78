package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/costs"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/trace"
)

// Closed-loop workloads on the two-host bench world: the write path runs
// on host A, the read path on host B.

const (
	bulkBytes = 16 << 20 // the paper's ttcp transfer
	bulkChunk = 8 << 10  // in 8 KB writes
	bulkPort  = 5001

	rpcRounds = 2000                   // measured 1-byte round trips after one warm-up round
	rpcJitter = 100 * time.Microsecond // client pause before a round is uniform in [0, rpcJitter)
	rpcPort   = 5002

	patternPeriod = 251 // payload bytes repeat with a prime period

	frameLimit = 40000 // flight-recorder records kept per traced world
)

// pattern returns a seed-derived payload table long enough that any
// n-byte window starting at offset o is p[o%patternPeriod:][:n].
func pattern(rng *rand.Rand, n int) []byte {
	p := make([]byte, n+patternPeriod)
	for i := 0; i < patternPeriod; i++ {
		p[i] = byte(rng.Intn(256))
	}
	for i := patternPeriod; i < len(p); i++ {
		p[i] = p[i-patternPeriod]
	}
	return p
}

// startDelay is the seed-derived offset at which a closed-loop client
// starts, which places its traffic at a different phase of the stacks'
// 200 ms and 500 ms protocol timers on every seed.
func startDelay(rng *rand.Rand) time.Duration {
	return time.Millisecond + time.Duration(rng.Int63n(int64(500*time.Millisecond)))
}

// buildWorld constructs the column's two-host world and its two
// applications: a on host A, b on host B.
func buildWorld(r *run, seed int64, names [2]string) (w *bench.World, a, b socketapi.API) {
	w = r.col.cfg.Build(seed)
	b = w.NewB(names[1])
	a = w.NewA(names[0])
	return w, a, b
}

// setUp times the construction of the world the run measures.
func setUp(r *run, seed int64, names [2]string) (w *bench.World, a, b socketapi.API) {
	r.build(func() { w, a, b = buildWorld(r, seed, names) })
	r.reg = w.Reg
	return w, a, b
}

// observe attributes the world's virtual CPU charges by component group
// while counting is on.
func observe(r *run, w *bench.World, counting *bool) {
	if !r.traced {
		return
	}
	w.Observe(func(comp costs.Component, d time.Duration) {
		if *counting {
			r.vcpu[vcpuGroup(comp)] += d
		}
	})
}

// finishWorld collects what every closed-loop world reports, then times
// the remaining set-up builds.
func finishWorld(r *run, w *bench.World, seed int64, names [2]string) {
	r.events = w.Sim.Dispatched()
	r.heap = 8 // two hosts, each with fast and slow protocol timers per stack
	if w.Rec != nil {
		r.frames = txFrames(w.Rec.Records())
	}
	r.rebuild(func() { buildWorld(r, seed, names) })
}

func runBulk(r *run) error {
	seed := sim.StreamSeed(r.seed, "bulk")
	rng := rand.New(rand.NewSource(seed))
	pat := pattern(rng, bulkChunk)
	delay := startDelay(rng)
	names := [2]string{"ttcp-source", "ttcp-sink"}
	w, source, sink := setUp(r, seed, names)
	rcvBuf := r.col.cfg.RcvBufKB * 1024

	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	var start, end sim.Time
	got := 0
	counting := false
	observe(r, w, &counting)

	w.Sim.Spawn("sink", func(p *sim.Proc) {
		ls, err := sink.Socket(p, socketapi.SockStream)
		if err == nil {
			err = sink.SetSockOpt(p, ls, socketapi.SoRcvBuf, rcvBuf)
		}
		if err == nil {
			err = sink.Bind(p, ls, socketapi.SockAddr{Port: bulkPort})
		}
		if err == nil {
			err = sink.Listen(p, ls, 1)
		}
		if err != nil {
			fail(err)
			return
		}
		fd, _, err := sink.Accept(p, ls)
		if err != nil {
			fail(err)
			return
		}
		buf := make([]byte, bulkChunk)
		for {
			n, err := sink.Recv(p, fd, buf, 0)
			if err != nil {
				fail(err)
				return
			}
			if n == 0 {
				break
			}
			if off := got % patternPeriod; !bytes.Equal(buf[:n], pat[off:off+n]) {
				fail(fmt.Errorf("bulk: payload mismatch in bytes %d..%d", got, got+n))
				return
			}
			got += n
		}
		end = p.Now()
		counting = false
		sink.Close(p, fd)
		sink.Close(p, ls)
	})

	w.Sim.Spawn("source", func(p *sim.Proc) {
		p.Sleep(delay)
		fd, err := source.Socket(p, socketapi.SockStream)
		if err == nil {
			err = source.SetSockOpt(p, fd, socketapi.SoSndBuf, rcvBuf)
		}
		if err != nil {
			fail(err)
			return
		}
		if err := source.Connect(p, fd, socketapi.SockAddr{Addr: w.IPB, Port: bulkPort}); err != nil {
			fail(err)
			return
		}
		start = p.Now()
		counting = true
		for sent := 0; sent < bulkBytes; {
			off := sent % patternPeriod
			t0 := p.Now()
			n, err := source.Send(p, fd, pat[off:off+bulkChunk], 0)
			if err != nil {
				fail(err)
				return
			}
			r.lat = append(r.lat, p.Now().Sub(t0))
			sent += n
		}
		source.Close(p, fd)
	})

	err := r.slice("run", w.Sim.Run)
	r.attempted = 1
	if err == nil {
		err = runErr
	}
	if err != nil {
		return err
	}
	if got != bulkBytes {
		return fmt.Errorf("bulk: received %d of %d bytes", got, bulkBytes)
	}
	r.payload = int64(got)
	r.vdur = end.Sub(start)
	r.note("bulk", got, r.vdur)
	if r.reg != nil {
		snap := r.reg.Snapshot(w.Sim.Now().Duration())
		r.vcpuDiv = float64(snap.Sum("host.A.nic.tx_frames"))
	}
	finishWorld(r, w, seed, names)
	return nil
}

func runRPC(r *run) error {
	seed := sim.StreamSeed(r.seed, "rpc")
	rng := rand.New(rand.NewSource(seed))
	msgs := pattern(rng, rpcRounds+1)
	delay := startDelay(rng)
	pause := make([]time.Duration, rpcRounds+1)
	for i := range pause {
		pause[i] = time.Duration(rng.Int63n(int64(rpcJitter)))
	}
	names := [2]string{"protolat-client", "protolat-server"}
	w, client, server := setUp(r, seed, names)

	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	counting := false
	observe(r, w, &counting)

	w.Sim.Spawn("server", func(p *sim.Proc) {
		ls, err := server.Socket(p, socketapi.SockStream)
		if err == nil {
			err = server.Bind(p, ls, socketapi.SockAddr{Port: rpcPort})
		}
		if err == nil {
			err = server.Listen(p, ls, 1)
		}
		if err != nil {
			fail(err)
			return
		}
		fd, _, err := server.Accept(p, ls)
		if err != nil {
			fail(err)
			return
		}
		buf := make([]byte, 1)
		for i := 0; i < rpcRounds+1; i++ {
			n, err := server.Recv(p, fd, buf, 0)
			if err != nil || n != 1 {
				fail(fmt.Errorf("rpc: server recv round %d: n=%d err=%v", i, n, err))
				return
			}
			if _, err := server.Send(p, fd, buf, 0); err != nil {
				fail(err)
				return
			}
		}
		server.Close(p, fd)
		server.Close(p, ls)
	})

	w.Sim.Spawn("client", func(p *sim.Proc) {
		p.Sleep(delay)
		fd, err := client.Socket(p, socketapi.SockStream)
		if err != nil {
			fail(err)
			return
		}
		if err := client.Connect(p, fd, socketapi.SockAddr{Addr: w.IPB, Port: rpcPort}); err != nil {
			fail(err)
			return
		}
		buf := make([]byte, 1)
		for i := 0; i < rpcRounds+1; i++ {
			if i == 1 { // round 0 is the warm-up: ARP, caches
				counting = true
			}
			// A short seed-derived pause: the rounds sample the phases of
			// the stacks' delayed-ACK and protocol timers, so each seed
			// measures a different mix of them. It is far below the offload
			// engine's moderation hold, so the rounds stay back to back
			// there.
			p.Sleep(pause[i])
			t0 := p.Now()
			if _, err := client.Send(p, fd, msgs[i:i+1], 0); err != nil {
				fail(err)
				return
			}
			n, err := client.Recv(p, fd, buf, 0)
			if err != nil || n != 1 {
				fail(fmt.Errorf("rpc: client recv round %d: n=%d err=%v", i, n, err))
				return
			}
			if buf[0] != msgs[i] {
				fail(fmt.Errorf("rpc: round %d echoed %#x, sent %#x", i, buf[0], msgs[i]))
				return
			}
			if i > 0 {
				r.lat = append(r.lat, p.Now().Sub(t0))
			}
		}
		counting = false
		client.Close(p, fd)
	})

	err := r.slice("run", w.Sim.Run)
	r.attempted = rpcRounds
	if err == nil {
		err = runErr
	}
	if err != nil {
		return err
	}
	if len(r.lat) != rpcRounds {
		return fmt.Errorf("rpc: %d of %d rounds completed", len(r.lat), rpcRounds)
	}
	r.payload = 2 * rpcRounds
	for _, l := range r.lat { // goodput counts round-trip time, not the pauses
		r.vdur += l
	}
	r.vcpuDiv = 2 * rpcRounds
	r.note("rpc", r.vdur, r.lat)
	finishWorld(r, w, seed, names)
	return nil
}

// txFrames extracts the transmitted frames a flight recorder captured.
func txFrames(recs []trace.Record) [][]byte {
	var out [][]byte
	for _, rec := range recs {
		if rec.Event == trace.EvFrameTx && len(rec.Frame) > 0 {
			out = append(out, rec.Frame)
		}
	}
	return out
}

// vcpuGroup folds a Table 4 component into the layer that charged it.
func vcpuGroup(c costs.Component) string {
	switch c {
	case costs.CompEntryCopyin, costs.CompCopyoutExit:
		return "socket"
	case costs.CompTransportOutput, costs.CompTransportInput:
		return "transport"
	case costs.CompIPOutput, costs.CompIPIntr:
		return "ip"
	case costs.CompEtherOutput, costs.CompDeviceIntrRead:
		return "driver"
	default: // netisr/packet filter, kernel copyout, mbuf/queue, wakeup, dataplane
		return "delivery"
	}
}
