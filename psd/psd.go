// Package psd is the public face of the protocol-service-decomposition
// library: it assembles simulated networks of hosts, each running one of
// the three protocol architectures from Maeda & Bershad's SOSP '93 paper,
// and hands out BSD socket interfaces to application code.
//
// A minimal program:
//
//	n := psd.New(1)
//	a := n.Host("alice", "10.0.0.1", psd.Decomposed())
//	b := n.Host("bob", "10.0.0.2", psd.Decomposed())
//	app := b.NewApp("echo-server")
//	n.Spawn("server", func(t *psd.Thread) { ... app.Socket(t, psd.SockDgram) ... })
//	...
//	n.Run()
//
// Application code is written against the standard socket calls (socket,
// bind, connect, listen, accept, the send/recv family, select, fork) and
// runs unchanged on any architecture — which is the paper's compatibility
// claim, enforced here by the shared socketapi.API interface.
package psd

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/costs"
	"repro/internal/dataplane"
	"repro/internal/fault"
	"repro/internal/inkernel"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/uxserver"
	"repro/internal/wire"
)

// Metrics types, re-exported so tooling and tests can consume registry
// snapshots without importing internal packages.
type (
	// Registry is the deterministic metrics registry (see Config.Metrics).
	Registry = metrics.Registry
	// MetricsSnapshot is a point-in-time, sorted reading of a registry.
	MetricsSnapshot = metrics.Snapshot
	// MetricsScope is a named prefix in the registry; adapters bind
	// their counters under one (see Framer.BindMetrics).
	MetricsScope = metrics.Scope
	// HistView is a rendered histogram (count/sum/min/max/quantiles).
	HistView = metrics.HistView
	// SocketInfo is one row of a netstat-style socket table.
	SocketInfo = stack.SocketInfo
)

// Data-plane types, re-exported so tooling and tests can program a
// host's data plane without importing internal packages.
type (
	// Plane is a host's programmable data plane (see Host.Dataplane):
	// conntrack, NAT, and L4 load balancing on the kernel filter hook.
	Plane = dataplane.Plane
	// VIP is one virtual service spread across a backend pool.
	VIP = dataplane.VIP
	// PoolBackend is one member of a VIP's backend pool.
	PoolBackend = dataplane.Backend
	// FlowInfo is one row of a data plane's connection-tracking table.
	FlowInfo = dataplane.FlowInfo
)

// Flight-recorder types, re-exported so tooling and tests can consume
// traces without importing internal packages.
type (
	// Recorder is the deterministic flight recorder (see Config.Trace).
	Recorder = trace.Recorder
	// TraceLayer selects which subsystems the recorder captures.
	TraceLayer = trace.Layer
)

// Trace layers, re-exported for Config.Trace.
const (
	TraceSim    = trace.LayerSim
	TraceNet    = trace.LayerNet
	TraceFilter = trace.LayerFilter
	TraceStack  = trace.LayerStack
	TraceCore   = trace.LayerCore
)

// Re-exported application-facing types.
type (
	// App is the socket interface an application process uses.
	App = socketapi.API
	// ChainApp is the chain-based scatter-gather/sendfile interface:
	// SendChain, RecvPeek/RecvRelease, and cross-socket Splice. Every
	// architecture implements it; only Decomposed aliases storage on the
	// send/receive paths (the baselines degrade to copies), and Splice
	// forwards without mapping payload into the application at all.
	ChainApp = socketapi.ChainAPI
	// Chain is a refcounted scatter-gather buffer chain.
	Chain = mbuf.Chain
	// Range declares one byte range RecvPeek must materialize.
	Range = socketapi.Range
	// RecvView is RecvPeek's result: an aliased chain plus the
	// selectively materialized ranges.
	RecvView = socketapi.RecvView
	// Thread is a simulated thread of execution.
	Thread = sim.Proc
	// SockAddr is an Internet socket address.
	SockAddr = socketapi.SockAddr
	// FDSet names descriptors for Select.
	FDSet = socketapi.FDSet
)

// Socket types and flags, re-exported for application code.
const (
	SockStream = socketapi.SockStream
	SockDgram  = socketapi.SockDgram
	MsgOOB     = socketapi.MsgOOB
	MsgPeek    = socketapi.MsgPeek
	ShutRd     = socketapi.ShutRd
	ShutWr     = socketapi.ShutWr
	ShutRdWr   = socketapi.ShutRdWr
	SoRcvBuf   = socketapi.SoRcvBuf
	SoSndBuf   = socketapi.SoSndBuf
	TCPNoDelay = socketapi.TCPNoDelay
)

// Arch selects a host's protocol architecture.
type Arch struct {
	kind int // 0 decomposed, 1 kernel, 2 server
	prof costs.Profile
	srv  costs.Profile
}

// Decomposed is the paper's architecture: an OS server plus per-
// application protocol libraries over the integrated packet filter
// (Library-SHM-IPF cost profile).
func Decomposed() Arch {
	return Arch{kind: 0, prof: costs.CalibrateTable2(costs.DECLibrarySHMIPF()), srv: costs.DECServerUX()}
}

// DecomposedIPC is the decomposed architecture over per-packet IPC
// delivery.
func DecomposedIPC() Arch {
	return Arch{kind: 0, prof: costs.CalibrateTable2(costs.DECLibraryIPC()), srv: costs.DECServerUX()}
}

// DecomposedOffload is the decomposed architecture with the simulated
// NIC offload engine attached (Library-SHM-IPF-OFFLOAD): TSO/GSO
// transmit segmentation, LRO receive coalescing, checksum offload, and
// adaptive interrupt moderation on every host NIC.
func DecomposedOffload() Arch {
	return Arch{kind: 0, prof: costs.CalibrateTable2(costs.DECLibrarySHMIPFOffload()), srv: costs.DECServerUX()}
}

// InKernel is the Mach 2.5 / Ultrix baseline: protocols in the kernel.
func InKernel() Arch { return Arch{kind: 1, prof: costs.CalibrateTable2(costs.DECKernelMach25())} }

// ServerBased is the UX baseline: protocols in a single user-level
// server.
func ServerBased() Arch { return Arch{kind: 2, prof: costs.CalibrateTable2(costs.DECServerUX())} }

// ArchFlavor is a named architecture constructor, for suites that
// iterate or select the comparison columns by name.
type ArchFlavor struct {
	Name string
	New  func() Arch
}

// ArchFlavors is the shared registry of comparison columns, in suite
// order. Harnesses that fan a workload across architectures (psdbench
// -scenarios, -scale, the offload suite) take their lists from here, so
// a new column appears in every suite at once.
func ArchFlavors() []ArchFlavor {
	return []ArchFlavor{
		{"decomposed", Decomposed},
		{"inkernel", InKernel},
		{"server", ServerBased},
		{"offload", DecomposedOffload},
	}
}

// FlavorByName resolves an ArchFlavors entry by name.
func FlavorByName(name string) (ArchFlavor, error) {
	names := make([]string, 0, 4)
	for _, f := range ArchFlavors() {
		if f.Name == name {
			return f, nil
		}
		names = append(names, f.Name)
	}
	return ArchFlavor{}, fmt.Errorf("psd: unknown architecture %q (have %s)", name, strings.Join(names, ", "))
}

// Network is a simulated 10 Mb/s Ethernet with attached hosts. Larger
// internets are built from Subnets joined by Routers (see NewSubnet and
// NewRouter); the Network itself doubles as the default subnet.
//
// With Config.Shards set, the network runs as a shard group: subnets
// and routers are placed on shards (NewSubnetOn, NewRouterOn), shards
// are joined only by Trunks (whose propagation delay is the group's
// conservative lookahead), and the observable schedule — traces,
// metrics, socket tables — is byte-identical whether the shards run
// serially or on worker goroutines, and for any shard count.
type Network struct {
	sim     *sim.Sim
	group   *sim.Group // nil in classic single-loop mode
	seg     *simnet.Segment
	rec     *trace.Recorder
	reg     *metrics.Registry
	next    int
	routers []*Router
	trunks  []*Trunk
}

// Config collects network construction options beyond the seed.
type Config struct {
	// Seed drives every pseudo-random decision; runs with the same seed
	// and workload are bit-identical.
	Seed int64

	// Deadline bounds virtual time (0 means the 2 h default).
	Deadline time.Duration

	// Trace lists the flight-recorder layers to capture (TraceSim,
	// TraceNet, TraceFilter, TraceStack, TraceCore). Empty means tracing
	// is off and costs nothing on any hot path.
	Trace []TraceLayer

	// TraceLimit caps the number of retained records (0 = unlimited).
	TraceLimit int

	// Metrics enables the deterministic metrics registry: every layer's
	// counters, gauges, and virtual-clock latency histograms become
	// readable through Network.Metrics and Host.Netstat. Disabled (the
	// default) it costs nothing on any hot path.
	Metrics bool

	// Shards splits the simulation into that many per-shard event
	// queues joined at Trunk boundaries (conservative lookahead
	// synchronization). Zero keeps the classic single event loop,
	// bit-identical to prior releases. Shards >= 1 selects group mode;
	// results are independent of the count, so Shards: 1 is the
	// reference schedule any higher count must reproduce exactly.
	Shards int

	// SingleThreaded runs a shard group serially on the calling
	// goroutine instead of on worker goroutines. Results are identical
	// either way; the serial mode exists so equivalence tests (and
	// debuggers) can hold everything on one stack.
	SingleThreaded bool
}

// New creates a network; runs are deterministic for a given seed.
func New(seed int64) *Network { return NewConfig(Config{Seed: seed}) }

// NewConfig creates a network with explicit options.
func NewConfig(cfg Config) *Network {
	deadline := sim.Time(2 * time.Hour)
	if cfg.Deadline > 0 {
		deadline = sim.Time(cfg.Deadline)
	}
	n := &Network{}
	var s *sim.Sim
	if cfg.Shards > 0 {
		g := sim.NewGroup(cfg.Seed, cfg.Shards)
		g.SingleThreaded = cfg.SingleThreaded
		g.Deadline = deadline
		n.group = g
		s = g.Shard(0)
	} else {
		s = sim.New(cfg.Seed)
		s.Deadline = deadline
	}
	n.sim = s
	n.seg = simnet.NewSegment(s)
	if cfg.Metrics {
		n.reg = metrics.NewRegistry()
		n.seg.SetMetrics(n.reg.Scope("net"))
	}
	if len(cfg.Trace) > 0 {
		n.rec = trace.New(s, cfg.Trace...)
		if cfg.TraceLimit > 0 {
			n.rec.SetLimit(cfg.TraceLimit)
		}
		if n.group != nil {
			// Group mode: nothing writes to the root buffer. Every
			// component gets a lane (ids follow construction order, so
			// the merged stream is independent of the shard mapping),
			// and each shard's scheduler gets one of its own.
			for _, sh := range n.group.Shards() {
				sh.SetTracer(n.rec.Lane(sh).SimTracer())
			}
			n.seg.SetTrace(n.rec.Lane(s))
		} else {
			n.seg.SetTrace(n.rec)
			s.SetTracer(n.rec.SimTracer())
		}
	}
	return n
}

// lane returns the recorder a component owned by shard s should write
// to: the root recorder in classic mode (single event loop, single
// writer), a fresh per-component lane in group mode. Returns nil when
// tracing is off.
func (n *Network) lane(s *sim.Sim) *trace.Recorder {
	if n.rec == nil || n.group == nil {
		return n.rec
	}
	return n.rec.Lane(s)
}

// shardSim maps a shard index to its event queue. Classic networks have
// exactly shard 0.
func (n *Network) shardSim(i int) *sim.Sim {
	if n.group == nil {
		if i != 0 {
			panic(fmt.Sprintf("psd: shard %d requested but Config.Shards is 0 (classic mode has only shard 0)", i))
		}
		return n.sim
	}
	return n.group.Shard(i)
}

// Group exposes the shard group, or nil in classic mode.
func (n *Network) Group() *sim.Group { return n.group }

// NumShards returns the shard count (1 in classic mode).
func (n *Network) NumShards() int {
	if n.group == nil {
		return 1
	}
	return n.group.NumShards()
}

// Trace returns the flight recorder, or nil when tracing was not
// enabled in the Config.
func (n *Network) Trace() *Recorder { return n.rec }

// Metrics returns the metrics registry, or nil when metrics were not
// enabled in the Config.
func (n *Network) Metrics() *Registry { return n.reg }

// MetricsSnapshot reads the whole registry at the current virtual time
// (nil when metrics are disabled). The result is sorted by name and
// byte-stable across identical runs.
func (n *Network) MetricsSnapshot() *MetricsSnapshot {
	if n.reg == nil {
		return nil
	}
	snap := n.reg.Snapshot(n.Now())
	return &snap
}

// Sim exposes the underlying simulator for advanced use (timers, custom
// processes).
func (n *Network) Sim() *sim.Sim { return n.sim }

// Faults returns the network's deterministic fault injector: per-link
// drop/duplication/corruption/reorder/delay rates, link down, and
// partitions, all reproducible for a given seed. Host names are the
// link names.
func (n *Network) Faults() *fault.Injector { return n.seg.Faults() }

// SetLossRate injects uniform random frame loss (exercises TCP's
// recovery). It is shorthand for setting a Drop rate on Faults.
func (n *Network) SetLossRate(rate float64) {
	r := n.seg.Faults().DefaultRates()
	r.Drop = rate
	n.seg.Faults().SetDefaultRates(r)
}

// ApplyFaultPlan parses a fault plan in the compact text form (see
// fault.ParsePlan) and schedules it on the network.
func (n *Network) ApplyFaultPlan(text string) error {
	plan, err := fault.ParsePlan(text)
	if err != nil {
		return err
	}
	n.seg.Faults().Schedule(plan)
	return nil
}

// Host attaches a machine running the given architecture. addr is a
// dotted IPv4 address, e.g. "10.0.0.1".
func (n *Network) Host(name, addr string, arch Arch) *Host {
	return n.hostOn(n.sim, n.seg, nil, name, addr, arch)
}

// hostOn builds a host on a specific segment and shard, optionally
// installing a shared route table (subnet hosts route through their
// gateway; the default segment keeps each stack's everything-on-link
// table). s must be the shard that owns seg.
func (n *Network) hostOn(s *sim.Sim, seg *simnet.Segment, routes *stack.RouteTable, name, addr string, arch Arch) *Host {
	ip, err := ParseIP(addr)
	if err != nil {
		panic(err)
	}
	mac := n.nextMAC()
	h := &Host{name: name, ip: ip, sim: s}
	rec := n.lane(s)
	switch arch.kind {
	case 0:
		sys := core.New(s, seg, name, mac, ip, arch.prof, arch.srv)
		if rec != nil {
			sys.SetTrace(rec)
		}
		if n.reg != nil {
			sys.SetMetrics(n.reg.Scope("host." + name))
		}
		sys.SetRoutes(routes)
		h.newApp = func(app string) App { return sys.NewLibrary(app) }
		h.core = sys
		h.stacks = sys.Stacks
		h.kern = sys.Host
	case 1:
		sys := inkernel.New(s, seg, name, mac, ip, arch.prof)
		if rec != nil {
			sys.SetTrace(rec)
		}
		if n.reg != nil {
			sys.SetMetrics(n.reg.Scope("host." + name))
		}
		sys.St.SetRoutes(routes)
		h.newApp = func(app string) App { return sys.NewAPI(app) }
		h.stacks = func() []*stack.Stack { return []*stack.Stack{sys.St} }
		h.kern = sys.Host
	case 2:
		sys := uxserver.New(s, seg, name, mac, ip, arch.prof)
		if rec != nil {
			sys.SetTrace(rec)
		}
		if n.reg != nil {
			sys.SetMetrics(n.reg.Scope("host." + name))
		}
		sys.St.SetRoutes(routes)
		h.newApp = func(app string) App { return sys.NewAPI(app) }
		h.stacks = func() []*stack.Stack { return []*stack.Stack{sys.St} }
		h.kern = sys.Host
	}
	return h
}

// nextMAC hands out locally-administered MACs in attach order.
func (n *Network) nextMAC() wire.MAC {
	n.next++
	return wire.MAC{0x02, 0, 0, 0, byte(n.next >> 8), byte(n.next)}
}

// Spawn starts an application thread on shard 0; Run waits for all
// spawned threads on every shard. Threads that talk to a host placed
// on another shard should be spawned with Host.Spawn instead, so the
// thread runs on the same event queue as the sockets it drives.
func (n *Network) Spawn(name string, fn func(t *Thread)) { n.sim.Spawn(name, fn) }

// Run executes the simulation until every spawned thread finishes.
func (n *Network) Run() error {
	if n.group != nil {
		return n.group.Run()
	}
	return n.sim.Run()
}

// RunFor advances virtual time by d regardless of thread state.
func (n *Network) RunFor(d time.Duration) error {
	if n.group != nil {
		return n.group.RunFor(d)
	}
	return n.sim.RunFor(d)
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration {
	if n.group != nil {
		return n.group.Now().Duration()
	}
	return n.sim.Now().Duration()
}

// Host is one simulated machine.
type Host struct {
	name   string
	ip     wire.IPAddr
	sim    *sim.Sim
	newApp func(string) App
	core   *core.System
	stacks func() []*stack.Stack
	kern   *kern.Host
	plane  *dataplane.Plane
}

// Spawn starts an application thread on the host's own shard. In group
// mode every thread that uses a host's sockets must run on that host's
// shard; Spawn is how workloads arrange it.
func (h *Host) Spawn(name string, fn func(t *Thread)) { h.sim.Spawn(name, fn) }

// Netstat reads every protocol stack on the host (a Decomposed host has
// one per library plus the OS server's) into a deterministic, sorted
// netstat-style socket table.
func (h *Host) Netstat() []SocketInfo {
	var out []SocketInfo
	for _, st := range h.stacks() {
		out = append(out, st.SocketTable()...)
	}
	return out
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Addr returns the host's IP as a SockAddr with the given port.
func (h *Host) Addr(port uint16) SockAddr { return SockAddr{Addr: h.ip, Port: port} }

// NewApp creates an application process on the host and returns its
// socket interface. On a Decomposed host this links a protocol library
// into the new address space; on the baselines it is a plain process.
func (h *Host) NewApp(name string) App { return h.newApp(name) }

// Dataplane returns the host's programmable data plane, creating it and
// installing it on the kernel packet-filter hook on first use. The
// plane runs on every architecture — it lives below the protocol layers,
// in the one component all three organizations keep in the kernel.
// Its metrics appear under "host.<name>.kern.dataplane.*" when the
// network has metrics enabled.
func (h *Host) Dataplane() *Plane {
	if h.plane == nil {
		h.plane = dataplane.New(dataplane.Config{
			Sim:      h.sim,
			Name:     h.name,
			LocalIP:  h.ip,
			LocalMAC: h.kern.NIC.MAC(),
			Transmit: h.kern.RawTransmit,
		})
		h.kern.SetHook(h.plane)
		h.plane.BindMetrics(h.kern.KernScope().Sub("dataplane"))
	}
	return h.plane
}

// BackendSpec names one pool member for Host.InstallVIP: a simulated
// host and the port its real service listens on. Name defaults to the
// host's name (it keys the consistent hash, so it must be unique in the
// pool).
type BackendSpec struct {
	Host *Host
	Port uint16
	Name string
}

// InstallVIP publishes a virtual service at addr:port on this host's
// data plane, load-balanced across the given backends. The plane
// proxy-ARPs for the VIP address, so clients on the segment reach it
// with no host actually configuring it.
func (h *Host) InstallVIP(addr string, port uint16, backends ...BackendSpec) (*VIP, error) {
	ip, err := ParseIP(addr)
	if err != nil {
		return nil, err
	}
	bs := make([]PoolBackend, len(backends))
	for i, b := range backends {
		name := b.Name
		if name == "" {
			name = b.Host.Name()
		}
		bs[i] = PoolBackend{Name: name, IP: b.Host.ip, Port: b.Port, MAC: b.Host.kern.NIC.MAC()}
	}
	return h.Dataplane().InstallVIP(ip, port, bs)
}

// ServerStats reports the OS server's session-management counters on a
// Decomposed host (zeroes otherwise): sessions currently tracked,
// migrations into applications, returns to the server, and orphan aborts.
func (h *Host) ServerStats() (sessions, migrations, returns, orphans int) {
	if h.core == nil {
		return
	}
	srv := h.core.Server
	return srv.Sessions(), int(srv.Migrations.Value()), int(srv.Returns.Value()), int(srv.OrphansAborted.Value())
}

// ParseIP parses a dotted IPv4 address.
func ParseIP(s string) (wire.IPAddr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return wire.IPAddr{}, fmt.Errorf("psd: bad IPv4 address %q", s)
	}
	var ip wire.IPAddr
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return wire.IPAddr{}, fmt.Errorf("psd: bad IPv4 address %q", s)
		}
		ip[i] = byte(v)
	}
	return ip, nil
}

// Addr builds a SockAddr from a dotted address and port, panicking on a
// malformed address (a convenience for example programs).
func Addr(ip string, port uint16) SockAddr {
	a, err := ParseIP(ip)
	if err != nil {
		panic(err)
	}
	return SockAddr{Addr: a, Port: port}
}

// NewFDSet builds a descriptor set for Select.
func NewFDSet(fds ...int) FDSet { return socketapi.NewFDSet(fds...) }

// NewChain returns an empty buffer chain.
func NewChain() *Chain { return mbuf.New() }

// ChainOf wraps b in a chain without copying. The chain aliases b: the
// caller must not mutate b while the chain (or any chain it was moved
// into) is live. Ideal for static payloads such as file contents.
func ChainOf(b []byte) *Chain { return mbuf.FromBytes(b) }

// ChainCopy copies b into pooled, refcounted chain storage.
func ChainCopy(b []byte) *Chain { return mbuf.FromBytesCopy(b) }

// ChainOps returns the chain-based interface of an App. Every
// architecture in this repository provides it, so ok is false only for
// foreign App implementations.
func ChainOps(app App) (ChainApp, bool) {
	c, ok := app.(ChainApp)
	return c, ok
}

// Segment exposes the raw Ethernet segment for monitoring tools
// (promiscuous capture); applications should not touch the wire directly.
func (n *Network) Segment() *simnet.Segment { return n.seg }
