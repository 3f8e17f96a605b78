// Package stack implements a complete 4.3BSD-structured TCP/IP and UDP/IP
// protocol stack over the simulated Ethernet.
//
// The stack is deployment-agnostic, which is the paper's "reuse of
// existing protocol code" goal: the same code runs
//
//   - inside the simulated kernel (internal/inkernel),
//   - inside a user-level protocol server (internal/uxserver), and
//   - inside each application as a protocol library (internal/core),
//
// differing only in the cost profile charged for each layer, the thread
// priorities the deployment chooses, and which responsibilities are
// delegated (a library stack never performs connection establishment or
// teardown itself — sessions migrate in from, and back to, the
// operating-system server).
//
// Structure mirrors the BSD original: a socket layer with send/receive
// buffers, tcp_input/tcp_output/tcp_timers over a tcpcb, udp_input/
// udp_output, ip_input/ip_output with fragmentation and reassembly, ARP,
// and ICMP errors. Data is carried in mbuf chains.
package stack

import (
	"math/rand"
	"time"

	"repro/internal/costs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Addr is a transport endpoint.
type Addr struct {
	IP   wire.IPAddr
	Port uint16
}

// IsZero reports whether the endpoint is fully wildcarded.
func (a Addr) IsZero() bool { return a.IP.IsZero() && a.Port == 0 }

// tuple identifies a connection.
type tuple struct {
	proto  uint8
	local  Addr
	remote Addr
}

// ChargeFunc prices one protocol layer's work on the calling thread. The
// deployment supplies it, choosing CPU priority and metering. n is the
// transport payload size involved (0 for pure control segments).
type ChargeFunc func(t *sim.Proc, tcp bool, comp costs.Component, n int)

// PortAllocator manages the local transport port namespace. In the
// decomposed architecture it lives in the operating-system server so the
// namespace is shared among all processes; the baselines use a local
// allocator.
type PortAllocator interface {
	// AllocEphemeral reserves a free ephemeral port for proto.
	AllocEphemeral(proto uint8) (uint16, error)
	// Reserve claims a specific port; it fails if the port is taken
	// (unless reuse is permitted by the owner).
	Reserve(proto uint8, port uint16, reuse bool) error
	// Release returns a port to the namespace.
	Release(proto uint8, port uint16)
}

// Resolver maps next-hop IP addresses to hardware addresses. The kernel
// and server stacks own an ARP engine; library stacks consult the
// operating-system server's tables through a caching proxy (§3.3).
type Resolver interface {
	// ResolveOrQueue returns (mac, true) when the next hop's address is
	// known. Otherwise it takes ownership of emit — which it must call
	// with the address if resolution later succeeds, or never — and
	// returns false. Implementations must not block protocol input
	// threads: output triggered by packet processing (ACKs, RSTs, ICMP
	// errors) flows through here.
	ResolveOrQueue(t *sim.Proc, ip wire.IPAddr, emit func(mac wire.MAC)) (wire.MAC, bool)
}

// Config assembles a stack.
type Config struct {
	Sim      *sim.Sim
	Name     string
	LocalIP  wire.IPAddr
	LocalMAC wire.MAC

	Costs  *costs.ProtoCosts
	Charge ChargeFunc
	// Transmit puts a fully-formed frame on the wire. The EtherOutput
	// charge has already been applied when it is called.
	Transmit func(frame []byte) error

	Ports    PortAllocator
	Resolver Resolver
	Routes   *RouteTable
	Rand     *rand.Rand

	// Buffer defaults; SetSockOpt can override per socket.
	SndBuf int
	RcvBuf int

	// MaxTCPPayload, when nonzero, models the 386BSD/BNR2SS bug that
	// prevents sending large TCP packets: segments are clamped to this
	// size and sosend rejects messages needing larger ones.
	MaxTCPPayload int

	// DisableNagle turns off sender-side small-segment coalescing for all
	// sockets (per-socket TCPNoDelay also exists).
	DisableNagle bool

	// TSOMaxPayload, when nonzero, enables TSO/GSO-style segmentation
	// offload: tcp_output may emit one oversized frame carrying up to
	// this many payload bytes, and the NIC offload engine — not the
	// stack — slices it into MSS-sized wire frames. The send queue keeps
	// holding the unsegmented byte stream, so retransmission after a
	// dropped slice works unchanged.
	TSOMaxPayload int

	// ChecksumOffload, when true, moves transport checksumming to the
	// NIC engine: outbound TCP/UDP frames leave the stack with a zero
	// checksum field for the engine to fill, and inbound verification is
	// skipped (the engine already verified and dropped bad frames).
	ChecksumOffload bool

	// QuietOrphans suppresses RST and ICMP-unreachable responses to
	// segments that match no local socket. Library stacks set it: they
	// only ever see their own sessions' traffic, and a stray segment
	// means a migration race, not a protocol violation — the session's
	// new owner will handle the retransmission.
	QuietOrphans bool

	// OrphanFilter, when set, is consulted before responding to a segment
	// that matches no connection (or that would be rejected by a
	// listener): returning true suppresses the RST/ICMP. The OS server of
	// the decomposed architecture uses it to stay quiet about sessions
	// that have migrated to an application — packets already queued at
	// the server when the filter handoff happened must not reset a live
	// connection; the peer's retransmission will reach the right address
	// space.
	OrphanFilter func(proto uint8, local, remote Addr) bool

	// Trace, when set, is the flight recorder stack-layer events are
	// emitted on: TCP state transitions, retransmissions, cwnd and RTT
	// samples, and checksum discards. Tracing is passive — it charges no
	// virtual CPU — and free when unset.
	Trace *trace.Recorder
}

// Stack is one instance of the protocol stack.
type Stack struct {
	cfg Config

	conns   map[tuple]*Socket // fully-specified connections (TCP and connected UDP)
	binds   map[tuple]*Socket // wildcard-remote sockets (listeners, unconnected UDP)
	ipID    uint16
	issSeed uint32
	sockSeq uint64 // socket creation counter (deterministic iteration order)

	reasm     map[reasmKey]*reasmEntry
	arp       *arpEngine // nil for library stacks (server resolves)
	icmpEcho  map[uint16]*sim.Cond
	timerStop func()

	// Timer-tick scratch, reused across ticks so the periodic walks
	// (tcp_fasttimo, tcp_slowtimo, reassembly expiry) allocate nothing
	// in steady state. The timers fire on every host several times per
	// virtual second, so at city scale these were the simulator's
	// dominant allocation site.
	timoSocks []*Socket
	timoKeys  []reasmKey

	// rxVerified is set by ipInput before dispatching to a transport:
	// true when the NIC engine already verified this segment's checksum
	// (checksum offload, unfragmented), so the software pass is skipped.
	// Guarded by mu like all input-path state.
	rxVerified bool

	// mu serializes protocol processing, playing the role of BSD's
	// splnet/priority-level machinery: application calls, input
	// processing, and timers all run under it. Threads in this simulation
	// interleave at every CPU charge, so without it two threads could
	// both decide to transmit the same sequence range.
	mu sim.Mutex

	// Stats, exported for tests and the benchmark harness.
	Stats Stats

	// Latency histograms on the virtual clock; nil (free) unless
	// SetMetrics is called.
	mRTT     *metrics.Histogram // smoothed-RTT input samples (send-to-ACK), ns
	mConnect *metrics.Histogram // active-open SYN-sent to ESTABLISHED, ns
	mCwnd    *metrics.Histogram // congestion-window samples at change points, bytes
}

// Stats counts stack activity. The fields are metrics counters so the
// registry binds to the same storage the tests read: the two can never
// disagree, and counting stays a plain increment whether or not a
// registry is attached.
type Stats struct {
	IPIn, IPOut           metrics.Counter
	IPFragsOut, IPReasmOK metrics.Counter
	IPReasmTimeout        metrics.Counter
	TCPIn, TCPOut         metrics.Counter
	TCPPureAcks           metrics.Counter
	TCPRexmit             metrics.Counter
	TCPFastRexmit         metrics.Counter
	TCPDupAcks            metrics.Counter
	TCPDelayedAcks        metrics.Counter
	UDPIn, UDPOut         metrics.Counter
	UDPNoPort             metrics.Counter
	ICMPIn, ICMPOut       metrics.Counter
	// Per-protocol checksum discard counters (IP header, TCP segment,
	// UDP datagram, ICMP message). The total is the ChecksumErrors
	// method — a derived sum, not a second field that could drift.
	IPChecksumErrors   metrics.Counter
	TCPChecksumErrors  metrics.Counter
	UDPChecksumErrors  metrics.Counter
	ICMPChecksumErrors metrics.Counter
	Drops              metrics.Counter

	// Socket-layer data-movement accounting for the chain API. Copied
	// counts payload bytes physically copied crossing the socket layer
	// (BSD copyin/copyout, fallback paths); Aliased counts bytes moved
	// by reference only (SendChain, zero-copy sends, RecvPeek views,
	// splice). copies/byte for a workload is SockCopiedBytes over total
	// payload.
	SockCopiedBytes  metrics.Counter
	SockAliasedBytes metrics.Counter
	// Splice/selective-copy activity (sendfile-style forwarding).
	SpliceOps          metrics.Counter
	SpliceBytes        metrics.Counter
	ZeroCopyRxBytes    metrics.Counter // bytes returned as RecvPeek aliased views
	SelectiveCopyBytes metrics.Counter // bytes materialized by CopyRanges specs

	// SwChecksumBytes counts transport-segment bytes the stack ran its
	// software checksum over — computed on output or verified on input.
	// With checksum offload the NIC engine does this work instead, so
	// the counter is the direct measure of what offloading removed.
	SwChecksumBytes metrics.Counter

	// TSOSends counts oversized (> MSS) segments handed to the NIC
	// engine for segmentation.
	TSOSends metrics.Counter
}

// ChecksumErrors is the total number of inbound packets discarded for a
// bad checksum, across all protocols.
func (s *Stats) ChecksumErrors() uint64 {
	return s.IPChecksumErrors.Value() + s.TCPChecksumErrors.Value() +
		s.UDPChecksumErrors.Value() + s.ICMPChecksumErrors.Value()
}

// New builds a stack. The caller must arrange for Input to be fed frames
// and should call StartTimers once a timer thread context exists.
func New(cfg Config) *Stack {
	if cfg.SndBuf == 0 {
		cfg.SndBuf = 8 * 1024
	}
	if cfg.RcvBuf == 0 {
		cfg.RcvBuf = 8 * 1024
	}
	if cfg.Rand == nil {
		// A per-stack stream keyed by the stack's name: draws (ISS
		// generation, ephemeral-port perturbation) stay identical no
		// matter what else runs concurrently or which shard the stack
		// lands on. The shared cfg.Sim.Rand() would make every draw
		// depend on global event order.
		cfg.Rand = cfg.Sim.Stream("stack." + cfg.Name)
	}
	if cfg.Routes == nil {
		cfg.Routes = NewRouteTable()
		// Single-segment default: everything is on-link.
		cfg.Routes.Add(wire.IPAddr{}, 0, wire.IPAddr{}, true)
	}
	st := &Stack{
		cfg:      cfg,
		conns:    make(map[tuple]*Socket),
		binds:    make(map[tuple]*Socket),
		reasm:    make(map[reasmKey]*reasmEntry),
		icmpEcho: make(map[uint16]*sim.Cond),
		issSeed:  cfg.Rand.Uint32(),
	}
	if cfg.Resolver == nil {
		st.arp = newARPEngine(st)
		st.cfg.Resolver = st.arp
	}
	return st
}

// SetRoutes replaces the stack's routing table (multi-subnet
// deployments share one table per subnet, built before any traffic
// flows). A nil table is ignored.
func (st *Stack) SetRoutes(rt *RouteTable) {
	if rt != nil {
		st.cfg.Routes = rt
	}
}

// LocalIP returns the stack's IP address.
func (st *Stack) LocalIP() wire.IPAddr { return st.cfg.LocalIP }

// Name returns the stack's diagnostic name.
func (st *Stack) Name() string { return st.cfg.Name }

// Sim returns the simulator the stack runs on.
func (st *Stack) Sim() *sim.Sim { return st.cfg.Sim }

func (st *Stack) now() sim.Time { return st.cfg.Sim.Now() }

func (st *Stack) charge(t *sim.Proc, tcp bool, comp costs.Component, n int) {
	if st.cfg.Charge != nil {
		st.cfg.Charge(t, tcp, comp, n)
	}
}

// SetTrace attaches (or, with nil, detaches) a flight recorder after
// construction. Deployments call it when the harness enables tracing.
func (st *Stack) SetTrace(r *trace.Recorder) { st.cfg.Trace = r }

// traceOn reports whether stack-layer tracing is live; every
// instrumentation site guards on it so disabled tracing allocates
// nothing.
func (st *Stack) traceOn() bool { return st.cfg.Trace.On(trace.LayerStack) }

// traceEmit records one stack-layer event tagged with the stack's name.
func (st *Stack) traceEmit(e trace.Event, name, aux string, a0, a1, a2 int64) {
	st.cfg.Trace.Emit(trace.LayerStack, e, st.cfg.Name, name, aux, a0, a1, a2)
}

func (st *Stack) lock(t *sim.Proc) { st.mu.Lock(t) }
func (st *Stack) unlock()          { st.mu.Unlock() }

// condWait releases the protocol lock around a condition wait, like
// tsleep dropping to spl0.
func (st *Stack) condWait(t *sim.Proc, c *sim.Cond) {
	st.mu.Unlock()
	c.Wait(t)
	st.mu.Lock(t)
}

// condWaitTimeout is condWait with a deadline; it reports whether the
// condition was signalled.
func (st *Stack) condWaitTimeout(t *sim.Proc, c *sim.Cond, d time.Duration) bool {
	st.mu.Unlock()
	ok := c.WaitTimeout(t, d)
	st.mu.Lock(t)
	return ok
}

// StartTimers launches the TCP fast (200 ms) and slow (500 ms) timers on
// the given spawner. The deployment passes a function that creates a
// daemon thread in the right process; returns a stop function.
func (st *Stack) StartTimers(spawn func(name string, body func(t *sim.Proc)) *sim.Proc) {
	stopped := false
	st.timerStop = func() { stopped = true }
	spawn(st.cfg.Name+".tcp-fast", func(t *sim.Proc) {
		for !stopped {
			t.Sleep(tcpFastInterval)
			if stopped {
				return
			}
			st.lock(t)
			st.tcpFastTimo(t)
			st.unlock()
		}
	})
	spawn(st.cfg.Name+".tcp-slow", func(t *sim.Proc) {
		for !stopped {
			t.Sleep(tcpSlowInterval)
			if stopped {
				return
			}
			st.lock(t)
			st.tcpSlowTimo(t)
			st.ipReasmTimo(t)
			if st.arp != nil {
				st.arp.timo(t)
			}
			st.unlock()
		}
	})
}

// StopTimers halts the timer threads (used when a process exits).
func (st *Stack) StopTimers() {
	if st.timerStop != nil {
		st.timerStop()
	}
}

// Input processes one received frame on the calling thread. Deployments
// call it from their receive loop (library receive thread, server network
// thread, or the kernel's software-interrupt thread).
func (st *Stack) Input(t *sim.Proc, frame []byte) {
	st.lock(t)
	defer st.unlock()
	st.input(t, frame)
}

func (st *Stack) input(t *sim.Proc, frame []byte) {
	eh, err := wire.UnmarshalEth(frame)
	if err != nil {
		st.Stats.Drops.Inc()
		return
	}
	switch eh.Type {
	case wire.EtherTypeIPv4:
		st.ipInput(t, eh, frame[wire.EthHeaderLen:])
	case wire.EtherTypeARP:
		if st.arp != nil {
			st.arp.input(t, frame[wire.EthHeaderLen:])
		}
	default:
		st.Stats.Drops.Inc()
	}
}

// iss generates an initial send sequence number.
func (st *Stack) iss() uint32 {
	st.issSeed += 64000 + uint32(st.cfg.Rand.Intn(64000))
	return st.issSeed
}

func (st *Stack) nextIPID() uint16 {
	st.ipID++
	return st.ipID
}

// lookup finds the socket for an incoming segment: exact 4-tuple first,
// then wildcard remote (listeners / unconnected UDP), then wildcard
// local IP as well.
func (st *Stack) lookup(proto uint8, local, remote Addr) *Socket {
	if s, ok := st.conns[tuple{proto, local, remote}]; ok {
		return s
	}
	if s, ok := st.binds[tuple{proto, local, Addr{}}]; ok {
		return s
	}
	if s, ok := st.binds[tuple{proto, Addr{IP: wire.IPAddr{}, Port: local.Port}, Addr{}}]; ok {
		return s
	}
	return nil
}

// orphanQuiet reports whether responses to an unmatched flow should be
// suppressed.
func (st *Stack) orphanQuiet(proto uint8, local, remote Addr) bool {
	if st.cfg.QuietOrphans {
		return true
	}
	return st.cfg.OrphanFilter != nil && st.cfg.OrphanFilter(proto, local, remote)
}

const (
	tcpFastInterval = 200 * time.Millisecond
	tcpSlowInterval = 500 * time.Millisecond
)
