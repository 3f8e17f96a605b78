package psd

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/slo"
	"repro/internal/trace"
)

// SLOResult re-exports one evaluated SLO assertion.
type SLOResult = slo.Result

// ScenarioConfig selects a named scenario, its seed, and the
// architecture every host in it runs.
type ScenarioConfig struct {
	Name     string
	Seed     int64
	Arch     Arch
	ArchName string // label for reports; cosmetic

	// Trace adds flight-recorder layers beyond the scenario's own
	// defaults (the partition scenario always records; others are
	// untraced unless asked).
	Trace []TraceLayer

	// Observe, when set, is called with the fully built network just
	// before the workload runs. Tests and tooling use it to hold on to
	// the recorder or registry for post-mortem artifacts.
	Observe func(*Network)
}

// ScenarioResult is a scenario's deterministic verdict plus headline
// numbers. Identical configs produce byte-identical results.
type ScenarioResult struct {
	Name     string `json:"name"`
	Arch     string `json:"arch"`
	Seed     int64  `json:"seed"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`

	// Request-latency quantiles (connect + request + full response).
	ReqP50Ns  int64 `json:"req_p50_ns"`
	ReqP99Ns  int64 `json:"req_p99_ns"`
	ReqP999Ns int64 `json:"req_p999_ns"`
	// TCP connect-latency p99 merged across every host stack.
	ConnectP99Ns int64 `json:"connect_p99_ns"`

	// Loss accounting: segment-level drops (fault injection, link
	// down) and router queue drops (RED early + tail).
	NetDrops    int64 `json:"net_drops"`
	RouterDrops int64 `json:"router_drops"`
	Forwarded   int64 `json:"forwarded"`
	TCPRexmits  int64 `json:"tcp_rexmits"`

	SimNs int64 `json:"sim_ns"` // virtual time consumed, drain included

	Verdict
}

// ScenarioNames lists the suite in canonical order.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarioDefs))
	for _, d := range scenarioDefs {
		names = append(names, d.name)
	}
	return names
}

type scenarioDef struct {
	name string
	doc  string
	run  func(*scenarioEnv)
}

var scenarioDefs = []scenarioDef{
	{"incast", "synchronized many-to-one fan-in through a slow router port (RED pressure)", runIncast},
	{"flash-crowd", "connection storm: a burst of short-lived clients hitting one server", runFlashCrowd},
	{"heavy-tail", "Pareto response sizes with exponential think times", runHeavyTail},
	{"diurnal", "arrival rate follows a compressed day curve", runDiurnal},
	{"partition", "transit link goes down mid-run; TCP recovers after heal", runPartition},
}

// RunScenario builds and executes the named scenario, evaluates its
// SLOs, and returns the deterministic verdict.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	var def *scenarioDef
	for i := range scenarioDefs {
		if scenarioDefs[i].name == cfg.Name {
			def = &scenarioDefs[i]
			break
		}
	}
	if def == nil {
		return nil, fmt.Errorf("psd: unknown scenario %q (have %v)", cfg.Name, ScenarioNames())
	}
	if cfg.ArchName == "" {
		cfg.ArchName = [...]string{"decomposed", "inkernel", "server"}[cfg.Arch.kind]
	}

	env := &scenarioEnv{cfg: cfg}
	def.run(env)
	if env.err != nil {
		return nil, fmt.Errorf("psd: scenario %s: %w", cfg.Name, env.err)
	}
	return env.finish()
}

// scenarioEnv is the workload harness plus the scenario-scoped
// instruments and the scenario's traffic stream.
type scenarioEnv struct {
	harness
	cfg ScenarioConfig
	rng *rand.Rand
	err error

	reqH     *metrics.Histogram
	requests *metrics.Counter
	errors   *metrics.Counter
}

// setup creates the network (metrics always on; trace layers as given)
// and the scenario-scoped instruments.
func (e *scenarioEnv) setup(layers ...TraceLayer) {
	seen := map[TraceLayer]bool{}
	for _, l := range layers {
		seen[l] = true
	}
	for _, l := range e.cfg.Trace {
		if !seen[l] {
			layers = append(layers, l)
			seen[l] = true
		}
	}
	e.n = NewConfig(Config{Seed: e.cfg.Seed, Metrics: true, Trace: layers})
	// Scenario-local stream: deterministic, and independent of the
	// simulator's own stream so traffic shaping never perturbs
	// protocol-level randomness.
	e.rng = rand.New(rand.NewSource(e.cfg.Seed ^ 0x5eed0f5ce0a1205))
	sc := e.n.reg.Scope("scenario")
	e.reqH = sc.Histogram("req_ns")
	e.requests = sc.NewCounter("requests")
	e.errors = sc.NewCounter("errors")
	e.drain = 75 * time.Second
}

// run hands the built network to the Observe hook, then executes the
// workload plus the drain period.
func (e *scenarioEnv) run() {
	if e.err != nil {
		return
	}
	if e.cfg.Observe != nil {
		e.cfg.Observe(e.n)
	}
	e.err = e.harness.run()
}

// baseSLOs installs the assertions every scenario shares: the workload
// completed without application errors, and no protocol state leaked.
func (e *scenarioEnv) baseSLOs(wantRequests int64) {
	e.suite.Add(slo.Expr("completed", func(c *slo.Context) (bool, string) {
		got := c.Snap.Sum("scenario.requests")
		return got == wantRequests, fmt.Sprintf("%d/%d requests completed", got, wantRequests)
	}))
	e.suite.Add(slo.SumZero("no-app-errors", "scenario.errors"))
	e.suite.Add(slo.SumZero("no-established-leak", ".tcp_state.established"))
	e.suite.Add(slo.SumZero("no-time-wait-leak", ".tcp_state.time_wait"))
	e.suite.Add(slo.SumZero("no-close-wait-leak", ".tcp_state.close_wait"))
	e.suite.Add(slo.SumZero("no-socket-leak", ".sockets"))
	e.suite.Add(slo.SumZero("no-checksum-errors", ".checksum_errors"))
}

// finish evaluates the SLO suite and assembles the result.
func (e *scenarioEnv) finish() (*ScenarioResult, error) {
	ctx, v := e.judge()
	r := &ScenarioResult{
		Name:     e.cfg.Name,
		Arch:     e.cfg.ArchName,
		Seed:     e.cfg.Seed,
		Requests: int64(e.requests.Value()),
		Errors:   int64(e.errors.Value()),
		SimNs:    int64(e.n.Now()),
		Verdict:  v,
	}
	if e.reqH.Count() > 0 {
		r.ReqP50Ns = int64(e.reqH.Quantile(0.50))
		r.ReqP99Ns = int64(e.reqH.Quantile(0.99))
		r.ReqP999Ns = int64(e.reqH.Quantile(0.999))
	}
	if h := e.n.reg.MergedHistogram(".connect_ns"); h.Count() > 0 {
		r.ConnectP99Ns = int64(h.Quantile(0.99))
	}
	snap := ctx.Snap
	r.NetDrops = snap.Sum(".drops_loss") + snap.Sum(".drops_down") + snap.Sum(".partition_drops")
	r.RouterDrops = snap.Sum(".red_drops") + snap.Sum(".tail_drops")
	r.Forwarded = snap.Sum(".forwarded")
	r.TCPRexmits = snap.Sum(".tcp_rexmit")
	return r, nil
}

// expDelay draws an exponential inter-arrival time with the given mean.
func (e *scenarioEnv) expDelay(mean time.Duration) time.Duration {
	return time.Duration(e.rng.ExpFloat64() * float64(mean))
}

// paretoSize draws a bounded Pareto-distributed size: heavy-tailed
// request sizes are the hallmark of internet traffic.
func (e *scenarioEnv) paretoSize(xm float64, alpha float64, cap int) int {
	v := xm / math.Pow(e.rng.Float64(), 1/alpha)
	if v > float64(cap) {
		return cap
	}
	return int(v)
}

// ---- request/response application -----------------------------------
//
// Every scenario speaks one tiny protocol: the client connects, sends
// an 8-byte header [uploadLen, downloadLen] followed by uploadLen
// payload bytes; the server drains the upload, streams downloadLen
// bytes back, and both sides close. Incast is big uploads, fan-out is
// big downloads, flash crowds are many tiny exchanges.

const scenarioPort = 7000

// scenarioServer accepts exactly total connections on h, serving each
// in its own thread.
func (e *scenarioEnv) scenarioServer(h *Host, total int) {
	app := h.NewApp("srv")
	e.n.Spawn("srv-accept", func(t *Thread) {
		ls, err := app.Socket(t, SockStream)
		if err != nil {
			e.errors.Inc()
			return
		}
		if err := app.Bind(t, ls, SockAddr{Port: scenarioPort}); err != nil {
			e.errors.Inc()
			return
		}
		if err := app.Listen(t, ls, 64); err != nil {
			e.errors.Inc()
			return
		}
		for i := 0; i < total; i++ {
			cfd, _, err := app.Accept(t, ls)
			if err != nil {
				e.errors.Inc()
				break
			}
			fd := cfd
			e.n.Spawn(fmt.Sprintf("srv-conn-%d", i), func(t *Thread) {
				e.serveConn(app, t, fd)
			})
		}
		app.Close(t, ls)
	})
}

func (e *scenarioEnv) serveConn(app App, t *Thread, fd int) {
	defer app.Close(t, fd)
	var hdr [8]byte
	if !recvFull(app, t, fd, hdr[:]) {
		e.errors.Inc()
		return
	}
	up := int(binary.BigEndian.Uint32(hdr[0:4]))
	down := int(binary.BigEndian.Uint32(hdr[4:8]))
	if up > 0 && !discardN(app, t, fd, up) {
		e.errors.Inc()
		return
	}
	if down > 0 && !sendN(app, t, fd, down) {
		e.errors.Inc()
		return
	}
}

// doRequest runs one full exchange and records its latency.
func (e *scenarioEnv) doRequest(app App, t *Thread, dst SockAddr, up, down int) {
	start := e.n.Now()
	fd, err := app.Socket(t, SockStream)
	if err != nil {
		e.errors.Inc()
		return
	}
	defer app.Close(t, fd)
	if err := app.Connect(t, fd, dst); err != nil {
		e.errors.Inc()
		return
	}
	// Header and upload go out as one write: a request is one message,
	// and splitting it would hand Nagle a needless round trip.
	req := make([]byte, 8+up)
	binary.BigEndian.PutUint32(req[0:4], uint32(up))
	binary.BigEndian.PutUint32(req[4:8], uint32(down))
	for i := 8; i < len(req); i++ {
		req[i] = byte(i)
	}
	if !sendFull(app, t, fd, req) {
		e.errors.Inc()
		return
	}
	if down > 0 && !discardN(app, t, fd, down) {
		e.errors.Inc()
		return
	}
	e.reqH.Observe(int64(e.n.Now() - start))
	e.requests.Inc()
}

func recvFull(app App, t *Thread, fd int, buf []byte) bool {
	for off := 0; off < len(buf); {
		nr, err := app.Recv(t, fd, buf[off:], 0)
		if err != nil || nr == 0 {
			return false
		}
		off += nr
	}
	return true
}

func discardN(app App, t *Thread, fd, n int) bool {
	buf := make([]byte, 4096)
	for got := 0; got < n; {
		want := n - got
		if want > len(buf) {
			want = len(buf)
		}
		nr, err := app.Recv(t, fd, buf[:want], 0)
		if err != nil || nr == 0 {
			return false
		}
		got += nr
	}
	return true
}

func sendFull(app App, t *Thread, fd int, buf []byte) bool {
	for off := 0; off < len(buf); {
		nw, err := app.Send(t, fd, buf[off:], 0)
		if err != nil || nw == 0 {
			return false
		}
		off += nw
	}
	return true
}

func sendN(app App, t *Thread, fd, n int) bool {
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	for sent := 0; sent < n; {
		want := n - sent
		if want > len(buf) {
			want = len(buf)
		}
		nw, err := app.Send(t, fd, buf[:want], 0)
		if err != nil || nw == 0 {
			return false
		}
		sent += nw
	}
	return true
}

// ---- the five scenarios ---------------------------------------------

// runIncast: 8 workers on a fast subnet simultaneously push 12 KB each
// to one aggregator behind a 5 Mb/s downlink — the classic fan-in that
// fills the router's egress queue and exercises RED plus TCP recovery.
func runIncast(e *scenarioEnv) {
	e.setup()
	agg := e.n.NewSubnet("agg", "10.1.0.0/24")
	workers := e.n.NewSubnet("workers", "10.2.0.0/24")
	agg.SetBitRate(5_000_000) // the slow side: queue pressure lives here
	e.n.NewRouter("core").Attach(agg, "10.1.0.254").Attach(workers, "10.2.0.254")

	const (
		nWorkers = 8
		rounds   = 4
		upload   = 12 << 10
	)
	srv := agg.Host("agg", "10.1.0.10", e.cfg.Arch)
	e.scenarioServer(srv, nWorkers*rounds)

	for w := 0; w < nWorkers; w++ {
		w := w
		host := workers.Host(fmt.Sprintf("w%d", w), fmt.Sprintf("10.2.0.%d", w+1), e.cfg.Arch)
		app := host.NewApp("push")
		e.n.Spawn(fmt.Sprintf("push-%d", w), func(t *Thread) {
			for r := 0; r < rounds; r++ {
				// All workers fire at the same virtual instant each
				// round — synchronized fan-in is the point.
				target := time.Duration(r+1) * 250 * time.Millisecond
				if now := e.n.Now(); target > now {
					t.Sleep(target - now)
				}
				e.doRequest(app, t, srv.Addr(scenarioPort), upload, 16)
			}
		})
	}

	e.baseSLOs(nWorkers * rounds)
	e.suite.Add(slo.QuantileAtMost("req-p99", "scenario.req_ns", 0.99, 3*time.Second))
	e.suite.Add(slo.RatioAtMost("router-drop-ratio", ".red_drops", ".forwarded", 0.10))
	e.suite.Add(slo.SumAtLeast("router-forwarded", ".forwarded", int64(nWorkers*rounds)))
	e.run()
}

// runFlashCrowd: twenty short-lived clients — half routed, half local —
// pile onto one server inside a ~200 ms window: a connection storm.
func runFlashCrowd(e *scenarioEnv) {
	e.setup()
	west := e.n.NewSubnet("west", "10.1.0.0/24")
	east := e.n.NewSubnet("east", "10.2.0.0/24")
	e.n.NewRouter("core").Attach(west, "10.1.0.254").Attach(east, "10.2.0.254")

	const nClients = 20
	srv := east.Host("origin", "10.2.0.100", e.cfg.Arch)
	e.scenarioServer(srv, nClients)

	arrival := time.Duration(0)
	for i := 0; i < nClients; i++ {
		i := i
		sub, base := west, "10.1.0"
		if i%2 == 1 {
			sub, base = east, "10.2.0"
		}
		host := sub.Host(fmt.Sprintf("c%d", i), fmt.Sprintf("%s.%d", base, i/2+1), e.cfg.Arch)
		app := host.NewApp("browser")
		arrival += e.expDelay(10 * time.Millisecond)
		at := arrival
		e.n.Spawn(fmt.Sprintf("crowd-%d", i), func(t *Thread) {
			t.Sleep(at)
			e.doRequest(app, t, srv.Addr(scenarioPort), 64, 1<<10)
		})
	}

	e.baseSLOs(nClients)
	e.suite.Add(slo.QuantileAtMost("connect-p99", ".connect_ns", 0.99, 1*time.Second))
	e.suite.Add(slo.QuantileAtMost("req-p99", "scenario.req_ns", 0.99, 2*time.Second))
	e.suite.Add(slo.RatioAtMost("net-drop-ratio", ".drops_loss", ".frames_sent", 0.01))
	e.run()
}

// runHeavyTail: six clients issue sequential requests whose response
// sizes follow a bounded Pareto distribution (α=1.2) with exponential
// think times — elephants and mice on the same path.
func runHeavyTail(e *scenarioEnv) {
	e.setup()
	west := e.n.NewSubnet("west", "10.1.0.0/24")
	east := e.n.NewSubnet("east", "10.2.0.0/24")
	e.n.NewRouter("core").Attach(west, "10.1.0.254").Attach(east, "10.2.0.254")

	const (
		nClients    = 6
		perClient   = 15
		sizeCap     = 32 << 10
		sizeMin     = 512.0
		paretoAlpha = 1.2
	)
	srv := east.Host("store", "10.2.0.10", e.cfg.Arch)
	e.scenarioServer(srv, nClients*perClient)

	for c := 0; c < nClients; c++ {
		c := c
		host := west.Host(fmt.Sprintf("c%d", c), fmt.Sprintf("10.1.0.%d", c+1), e.cfg.Arch)
		app := host.NewApp("get")
		e.n.Spawn(fmt.Sprintf("tail-%d", c), func(t *Thread) {
			t.Sleep(time.Duration(c) * 5 * time.Millisecond)
			for r := 0; r < perClient; r++ {
				down := e.paretoSize(sizeMin, paretoAlpha, sizeCap)
				e.doRequest(app, t, srv.Addr(scenarioPort), 64, down)
				t.Sleep(e.expDelay(15 * time.Millisecond))
			}
		})
	}

	e.baseSLOs(nClients * perClient)
	e.suite.Add(slo.QuantileAtMost("req-p50", "scenario.req_ns", 0.50, 500*time.Millisecond))
	e.suite.Add(slo.QuantileAtMost("req-p99", "scenario.req_ns", 0.99, 5*time.Second))
	e.suite.Add(slo.RatioAtMost("router-drop-ratio", ".red_drops", ".forwarded", 0.05))
	e.run()
}

// runDiurnal: one-shot clients arrive according to a compressed day
// curve — eight 500 ms "hours" whose arrival counts trace a load peak.
func runDiurnal(e *scenarioEnv) {
	e.setup()
	west := e.n.NewSubnet("west", "10.1.0.0/24")
	east := e.n.NewSubnet("east", "10.2.0.0/24")
	e.n.NewRouter("core").Attach(west, "10.1.0.254").Attach(east, "10.2.0.254")

	curve := []int{1, 2, 4, 6, 8, 6, 3, 1} // arrivals per slot
	const slot = 500 * time.Millisecond
	total := 0
	for _, k := range curve {
		total += k
	}

	srv := east.Host("api", "10.2.0.10", e.cfg.Arch)
	e.scenarioServer(srv, total)

	// A fixed pool of client hosts; each arrival is its own process.
	const pool = 4
	apps := make([]App, pool)
	for i := 0; i < pool; i++ {
		host := west.Host(fmt.Sprintf("pool%d", i), fmt.Sprintf("10.1.0.%d", i+1), e.cfg.Arch)
		apps[i] = host.NewApp("worker")
	}
	id := 0
	for s, k := range curve {
		for j := 0; j < k; j++ {
			app := apps[id%pool]
			at := time.Duration(s)*slot + e.expDelay(slot/4)
			id++
			e.n.Spawn(fmt.Sprintf("arr-%d", id), func(t *Thread) {
				t.Sleep(at)
				e.doRequest(app, t, srv.Addr(scenarioPort), 128, 2<<10)
			})
		}
	}

	e.baseSLOs(int64(total))
	e.suite.Add(slo.QuantileAtMost("req-p99", "scenario.req_ns", 0.99, 2*time.Second))
	e.suite.Add(slo.QuantileAtMost("req-p999", "scenario.req_ns", 0.999, 3*time.Second))
	e.run()
}

// runPartition: a regional cut — the transit link between two routers
// goes down mid-run for 800 ms; TCP rides it out on retransmission and
// every request still completes after heal.
func runPartition(e *scenarioEnv) {
	e.setup(TraceNet, TraceStack)
	west := e.n.NewSubnet("west", "10.1.0.0/24")
	mid := e.n.NewSubnet("mid", "10.9.0.0/24")
	east := e.n.NewSubnet("east", "10.2.0.0/24")
	r1 := e.n.NewRouter("r1").Attach(west, "10.1.0.254").Attach(mid, "10.9.0.1")
	r2 := e.n.NewRouter("r2").Attach(east, "10.2.0.254").Attach(mid, "10.9.0.2")
	if err := r1.AddRoute("10.2.0.0/24", "10.9.0.2"); err != nil {
		e.err = err
		return
	}
	if err := r2.AddRoute("10.1.0.0/24", "10.9.0.1"); err != nil {
		e.err = err
		return
	}

	const (
		nClients  = 4
		perClient = 6
	)
	srv := east.Host("primary", "10.2.0.1", e.cfg.Arch)
	e.scenarioServer(srv, nClients*perClient)

	for c := 0; c < nClients; c++ {
		c := c
		host := west.Host(fmt.Sprintf("c%d", c), fmt.Sprintf("10.1.0.%d", c+1), e.cfg.Arch)
		app := host.NewApp("region")
		e.n.Spawn(fmt.Sprintf("part-%d", c), func(t *Thread) {
			t.Sleep(time.Duration(c) * 20 * time.Millisecond)
			for r := 0; r < perClient; r++ {
				e.doRequest(app, t, srv.Addr(scenarioPort), 256, 1<<10)
				t.Sleep(250 * time.Millisecond)
			}
		})
	}

	// Cut the transit link out from under the traffic.
	if err := mid.ApplyFaultPlan("@1s down r1.mid for=800ms"); err != nil {
		e.err = err
		return
	}

	e.baseSLOs(nClients * perClient)
	e.suite.Add(slo.SumAtLeast("link-cut-dropped-frames", ".drops_down", 1))
	e.suite.Add(slo.SumAtLeast("tcp-retransmitted", ".tcp_rexmit", 1))
	e.suite.Add(slo.QuantileAtMost("req-p999", "scenario.req_ns", 0.999, 10*time.Second))
	rec := e.n.Trace()
	e.suite.Add(slo.Expr("trace-drop-then-rexmit", func(*slo.Context) (bool, string) {
		err := trace.Expect(rec.Records(),
			trace.Want{Event: trace.EvFrameDrop, Contains: "down"},
			trace.Want{Event: trace.EvTCPRexmit},
		)
		if err != nil {
			return false, err.Error()
		}
		return true, "frame drop (link down) precedes a TCP retransmit"
	}))
	e.run()
}
