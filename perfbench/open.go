package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/psd"
)

// Open-loop workloads on the psd topology API: requests arrive on a
// seed-derived Poisson schedule regardless of how earlier ones fare.
// Each request opens a new connection: connect, 256 B up, 1 KB down,
// close. Its latency runs from its due time to the last response byte.

const (
	reqBytes  = 256
	respBytes = 1024

	vipRate     = 150 // requests per second, below the slowest column's knee
	vipRequests = 1500
	vipClients  = 2
	vipBackends = 3
	vipAddr     = "10.0.0.100"
	vipPort     = 80
	backendPort = 8080
	vipDrain    = 90 * time.Second // conntrack idle GC and 2MSL

	cityDistricts = 10
	cityServers   = 10 // per district
	cityClients   = 90 // per district
	cityRate      = 200
	cityRequests  = 1000
	cityPort      = 7000
	cityTrunkProp = time.Millisecond
	cityDrain     = 75 * time.Second // 2MSL plus margin
)

// request is one open-loop request and what became of it.
type request struct {
	id     int
	due    time.Duration
	client int // client host index
	server int // server host index (city) or -1 (vip: the VIP picks)

	ok                            bool
	begun, connected, first, last time.Duration
	closed                        time.Duration
	servedBy                      int // backend or server index named in the response
}

// schedule draws n Poisson arrivals at rate per second, each from a
// uniformly chosen client, starting 10 ms into the run. The gaps are
// scaled so the last arrival falls at exactly n/rate: the burstiness is
// the seed's, the offered load is the same on every seed.
func schedule(rng *rand.Rand, n int, rate float64, clients int) []*request {
	gaps := make([]float64, n)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	span := float64(n) / rate * float64(time.Second)
	reqs := make([]*request, n)
	var at float64
	for i := range reqs {
		at += gaps[i] / total * span
		reqs[i] = &request{id: i + 1, due: 10*time.Millisecond + time.Duration(at), client: rng.Intn(clients), server: -1}
	}
	return reqs
}

func now(t *psd.Thread) time.Duration { return t.Now().Duration() }

// generate spawns, on client host h, one generator thread that starts
// each of its requests as its own thread at the request's due time.
func generate(h *psd.Host, reqs []*request, do func(t *psd.Thread, q *request)) {
	h.Spawn(h.Name()+"-gen", func(t *psd.Thread) {
		for _, q := range reqs {
			if d := q.due - now(t); d > 0 {
				t.Sleep(d)
			}
			q := q
			h.Spawn(fmt.Sprintf("req%d", q.id), func(t *psd.Thread) { do(t, q) })
		}
	})
}

// exchange runs one request on app against dst and records its
// timeline. The request carries its id; the response must echo the id
// after the serving host's index.
func exchange(t *psd.Thread, app psd.App, dst psd.SockAddr, q *request) {
	fd, err := app.Socket(t, psd.SockStream)
	if err != nil {
		return
	}
	q.begun = now(t) // the client host's CPU has taken the request up
	defer func() {
		app.Close(t, fd)
		q.closed = now(t)
	}()
	if err := app.Connect(t, fd, dst); err != nil {
		return
	}
	q.connected = now(t)
	req := make([]byte, reqBytes)
	binary.BigEndian.PutUint64(req, uint64(q.id))
	for i := 8; i < reqBytes; i++ {
		req[i] = byte(q.id + i)
	}
	if _, err := app.Send(t, fd, req, 0); err != nil {
		return
	}
	resp := make([]byte, respBytes)
	got := 0
	for got < respBytes {
		n, err := app.Recv(t, fd, resp[got:], 0)
		if err != nil || n == 0 {
			return
		}
		if got == 0 {
			q.first = now(t)
		}
		got += n
	}
	q.last = now(t)
	if binary.BigEndian.Uint64(resp[4:]) != uint64(q.id) {
		return
	}
	q.servedBy = int(binary.BigEndian.Uint32(resp))
	q.ok = true
}

// serve answers one accepted connection: read the request, check it,
// respond with the server's index and the request id, close.
func serve(t *psd.Thread, app psd.App, fd int, index int) (ok bool) {
	defer app.Close(t, fd)
	req := make([]byte, reqBytes)
	got := 0
	for got < reqBytes {
		n, err := app.Recv(t, fd, req[got:], 0)
		if err != nil || n == 0 {
			return false
		}
		got += n
	}
	id := binary.BigEndian.Uint64(req)
	for i := 8; i < reqBytes; i++ {
		if req[i] != byte(int(id)+i) {
			return false
		}
	}
	resp := make([]byte, respBytes)
	binary.BigEndian.PutUint32(resp, uint32(index))
	binary.BigEndian.PutUint64(resp[4:], id)
	_, err := app.Send(t, fd, resp, 0)
	return err == nil
}

// tally turns the finished requests into the run's counts, latency
// samples and spans. served[i] counts what server i saw served.
func tally(r *run, reqs []*request, servers int) (served []int) {
	served = make([]int, servers)
	var firstDue, lastDone time.Duration = reqs[0].due, 0
	for _, q := range reqs {
		r.attempted++
		if !q.ok {
			r.failed++
			continue
		}
		if q.servedBy < 0 || q.servedBy >= servers {
			r.failed++
			continue
		}
		served[q.servedBy]++
		r.lat = append(r.lat, q.last-q.due)
		r.connect = append(r.connect, q.connected-q.due)
		r.response = append(r.response, q.last-q.connected)
		r.late = append(r.late, q.begun-q.due)
		r.payload += reqBytes + respBytes
		if q.last > lastDone {
			lastDone = q.last
		}
		r.spans.request(q.id, q.due, q.connected, q.first, q.last, q.closed)
		r.note(q.id, q.servedBy, q.due, q.connected, q.first, q.last, q.closed)
	}
	r.vdur = lastDone - firstDue
	return served
}

// residue checks the drain laws on every host: no live sessions and no
// TIME_WAIT (or any other) sockets left behind.
func residue(hosts []*psd.Host) error {
	for _, h := range hosts {
		if s, _, _, _ := h.ServerStats(); s != 0 {
			return fmt.Errorf("%s: %d live sessions after drain", h.Name(), s)
		}
		for _, si := range h.Netstat() {
			if si.State == "TIME_WAIT" {
				return fmt.Errorf("%s: TIME_WAIT socket %v after drain", h.Name(), si.Local)
			}
		}
	}
	return nil
}

// registryResidue is the same law read from the metrics registry, as
// LBReport.Check and CityReport.Check read it.
func registryResidue(snap *psd.MetricsSnapshot, withPlane bool) error {
	for _, s := range []string{".core.sessions", ".core.ports_in_use", ".tcp_state.time_wait"} {
		if v := snap.Sum(s); v != 0 {
			return fmt.Errorf("registry: %s sums to %d after drain", s, v)
		}
	}
	if withPlane {
		for _, s := range []string{".dataplane.ct.flows", ".dataplane.lb.snat_in_use"} {
			if v := snap.Sum(s); v != 0 {
				return fmt.Errorf("registry: %s sums to %d after drain", s, v)
			}
		}
	}
	return nil
}

func netConfig(r *run, seed int64, shards int) psd.Config {
	cfg := psd.Config{Seed: seed, Metrics: r.traced, Shards: shards}
	if r.traced {
		cfg.Trace = []psd.TraceLayer{psd.TraceNet}
		cfg.TraceLimit = frameLimit
	}
	return cfg
}

// vipNet is the vip topology: a load-balancer host with the VIP
// installed, the backend pool and the client hosts, with their apps.
type vipNet struct {
	n                 *psd.Network
	lb                *psd.Host
	backends, clients []*psd.Host
	beApps, cliApps   []psd.App
}

func buildVIP(r *run, seed int64) (*vipNet, error) {
	v := &vipNet{n: psd.NewConfig(netConfig(r, seed, 0))}
	v.lb = v.n.Host("lb", "10.0.0.2", r.col.arch)
	specs := make([]psd.BackendSpec, vipBackends)
	for b := range specs {
		h := v.n.Host(fmt.Sprintf("be%d", b), fmt.Sprintf("10.0.1.%d", b+1), r.col.arch)
		v.backends = append(v.backends, h)
		v.beApps = append(v.beApps, h.NewApp("backend"))
		specs[b] = psd.BackendSpec{Host: h, Port: backendPort}
	}
	for c := 0; c < vipClients; c++ {
		h := v.n.Host(fmt.Sprintf("cli%d", c), fmt.Sprintf("10.0.2.%d", c+1), r.col.arch)
		v.clients = append(v.clients, h)
		v.cliApps = append(v.cliApps, h.NewApp("client"))
	}
	_, err := v.lb.InstallVIP(vipAddr, vipPort, specs...)
	return v, err
}

func runVIP(r *run) error {
	seed := sim.StreamSeed(r.seed, "vip")
	reqs := schedule(rand.New(rand.NewSource(seed)), vipRequests, vipRate, vipClients)

	var v *vipNet
	var err error
	r.build(func() { v, err = buildVIP(r, seed) })
	if err != nil {
		return err
	}
	n, lb, backends, clients, beApps, cliApps := v.n, v.lb, v.backends, v.clients, v.beApps, v.cliApps

	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	quitting := false
	bad := 0
	for b, h := range backends {
		b, h, app := b, h, beApps[b]
		h.Spawn(h.Name(), func(t *psd.Thread) {
			ls, err := app.Socket(t, psd.SockStream)
			if err == nil {
				err = app.Bind(t, ls, psd.SockAddr{Port: backendPort})
			}
			if err == nil {
				err = app.Listen(t, ls, 128)
			}
			if err != nil {
				fail(err)
				return
			}
			for {
				fd, _, err := app.Accept(t, ls)
				if err != nil {
					fail(err)
					return
				}
				if quitting { // every request has finished; this is the quit connection
					app.Close(t, fd)
					break
				}
				h.Spawn(fmt.Sprintf("be%d-conn", b), func(t *psd.Thread) {
					if !serve(t, app, fd, b) {
						bad++
					}
				})
			}
			app.Close(t, ls)
		})
	}

	done := 0
	vip := psd.Addr(vipAddr, vipPort)
	perClient := make([][]*request, vipClients)
	for _, q := range reqs {
		perClient[q.client] = append(perClient[q.client], q)
	}
	for c, h := range clients {
		app := cliApps[c]
		generate(h, perClient[c], func(t *psd.Thread, q *request) {
			exchange(t, app, vip, q)
			if done++; done == len(reqs) {
				// Tell each backend directly, not through the VIP, to stop
				// accepting.
				quitting = true
				for _, be := range backends {
					fd, err := app.Socket(t, psd.SockStream)
					if err != nil {
						fail(err)
						return
					}
					if err := app.Connect(t, fd, be.Addr(backendPort)); err != nil {
						fail(fmt.Errorf("vip: quit %s: %w", be.Name(), err))
					}
					app.Close(t, fd)
				}
			}
		})
	}

	if err := r.slice("run", n.Run); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	if err := r.slice("drain", func() error { return n.RunFor(vipDrain) }); err != nil {
		return err
	}
	served := tally(r, reqs, vipBackends)
	total := 0
	for _, s := range served {
		total += s
	}
	if total+r.failed != r.attempted || total != len(r.lat) {
		return fmt.Errorf("vip: served %d + failed %d != attempted %d", total, r.failed, r.attempted)
	}
	if bad != 0 {
		return fmt.Errorf("vip: backends saw %d malformed or unanswered requests", bad)
	}
	plane := lb.Dataplane()
	if f, s := plane.FlowCount(), plane.SNATInUse(); f != 0 || s != 0 {
		return fmt.Errorf("vip: %d conntrack flows and %d SNAT ports left after drain", f, s)
	}
	hosts := append(append([]*psd.Host{lb}, backends...), clients...)
	if err := residue(hosts); err != nil {
		return fmt.Errorf("vip: %w", err)
	}
	if reg := n.Metrics(); reg != nil {
		r.reg = reg
		snap := n.MetricsSnapshot()
		if err := registryResidue(snap, true); err != nil {
			return fmt.Errorf("vip: %w", err)
		}
		r.raw["dp_flows_left"] = float64(plane.FlowCount())
		r.raw["dp_snat_left"] = float64(plane.SNATInUse())
	}
	r.note(served)
	r.events = n.Sim().Dispatched()
	r.heap = 4 * len(hosts)
	if rec := n.Trace(); rec != nil {
		r.frames = txFrames(rec.Records())
	}
	r.rebuild(func() { _, _ = buildVIP(r, seed) }) // the first build succeeded
	return nil
}

// cityShards is the shard count for the city run: one per CPU, at most
// one per district.
func cityShards() int {
	s := runtime.NumCPU()
	if s > cityDistricts {
		s = cityDistricts
	}
	return s
}

func runCity(r *run) error {
	seed := sim.StreamSeed(r.seed, "city")
	rng := rand.New(rand.NewSource(seed))
	clientsTotal := cityDistricts * cityClients
	reqs := schedule(rng, cityRequests, cityRate, clientsTotal)
	// Cross-district destinations: a uniformly chosen server in another
	// district than the client's.
	expect := make([]int, cityDistricts*cityServers)
	for _, q := range reqs {
		d := q.client / cityClients
		td := (d + 1 + rng.Intn(cityDistricts-1)) % cityDistricts
		q.server = td*cityServers + rng.Intn(cityServers)
		expect[q.server]++
	}

	var (
		n                *psd.Network
		servers, clients []*psd.Host
		srvApps, cliApps []psd.App
		buildErr         error
	)
	shards := cityShards()
	r.build(func() {
		n = psd.NewConfig(netConfig(r, seed, shards))
		backbone := n.NewRouterOn(0, "bb")
		for d := 0; d < cityDistricts; d++ {
			shard := d % shards
			cidr := fmt.Sprintf("10.1.%d.0/24", d)
			sub := n.NewSubnetOn(shard, fmt.Sprintf("d%d", d), cidr)
			rtr := n.NewRouterOn(shard, fmt.Sprintf("r%d", d))
			rtr.Attach(sub, fmt.Sprintf("10.1.%d.1", d))
			bbAddr, distAddr := fmt.Sprintf("172.16.%d.1", 4*d), fmt.Sprintf("172.16.%d.2", 4*d)
			trunk := n.NewTrunk(fmt.Sprintf("t%d", d), fmt.Sprintf("172.16.%d.0/30", 4*d), cityTrunkProp)
			trunk.Attach(backbone, bbAddr).Attach(rtr, distAddr)
			if err := backbone.AddRoute(cidr, distAddr); err != nil {
				buildErr = err
				return
			}
			if err := rtr.AddRoute("0.0.0.0/0", bbAddr); err != nil {
				buildErr = err
				return
			}
			for i := 0; i < cityServers; i++ {
				h := sub.Host(fmt.Sprintf("d%ds%d", d, i), fmt.Sprintf("10.1.%d.%d", d, i+2), r.col.arch)
				servers = append(servers, h)
				srvApps = append(srvApps, h.NewApp("server"))
			}
			for j := 0; j < cityClients; j++ {
				h := sub.Host(fmt.Sprintf("d%dc%d", d, j), fmt.Sprintf("10.1.%d.%d", d, cityServers+j+2), r.col.arch)
				clients = append(clients, h)
				cliApps = append(cliApps, h.NewApp("client"))
			}
		}
	})
	if buildErr != nil {
		return buildErr
	}

	// Per-server state is written only on the server's own shard.
	srvErr := make([]error, len(servers))
	srvBad := make([]int, len(servers))
	for s, h := range servers {
		if expect[s] == 0 {
			continue
		}
		s, h, app := s, h, srvApps[s]
		h.Spawn(h.Name(), func(t *psd.Thread) {
			ls, err := app.Socket(t, psd.SockStream)
			if err == nil {
				err = app.Bind(t, ls, psd.SockAddr{Port: cityPort})
			}
			if err == nil {
				err = app.Listen(t, ls, 64)
			}
			if err != nil {
				srvErr[s] = err
				return
			}
			for k := 0; k < expect[s]; k++ {
				fd, _, err := app.Accept(t, ls)
				if err != nil {
					srvErr[s] = err
					return
				}
				h.Spawn(h.Name()+"-conn", func(t *psd.Thread) {
					if !serve(t, app, fd, s) {
						srvBad[s]++
					}
				})
			}
			app.Close(t, ls)
		})
	}
	perClient := make([][]*request, len(clients))
	for _, q := range reqs {
		perClient[q.client] = append(perClient[q.client], q)
	}
	for c, h := range clients {
		if len(perClient[c]) == 0 {
			continue
		}
		app := cliApps[c]
		generate(h, perClient[c], func(t *psd.Thread, q *request) {
			exchange(t, app, servers[q.server].Addr(cityPort), q)
		})
	}

	if err := r.slice("run", n.Run); err != nil {
		return err
	}
	for s, err := range srvErr {
		if err != nil {
			return fmt.Errorf("city: server %s: %w", servers[s].Name(), err)
		}
	}
	if err := r.slice("drain", func() error { return n.RunFor(cityDrain) }); err != nil {
		return err
	}
	served := tally(r, reqs, len(servers))
	total := 0
	for s, v := range served {
		total += v
		if q := srvBad[s]; q != 0 {
			return fmt.Errorf("city: server %s saw %d malformed or unanswered requests", servers[s].Name(), q)
		}
		if v != expect[s] {
			return fmt.Errorf("city: server %s served %d of the %d requests aimed at it", servers[s].Name(), v, expect[s])
		}
	}
	if total+r.failed != r.attempted {
		return fmt.Errorf("city: served %d + failed %d != attempted %d", total, r.failed, r.attempted)
	}
	if err := residue(append(append([]*psd.Host{}, servers...), clients...)); err != nil {
		return fmt.Errorf("city: %w", err)
	}
	for _, tr := range n.Trunks() {
		dirs := tr.Directions()
		for i, nic := range dirs {
			st := nic.DirStats()
			sent, delivered := st.FramesSent.Value()+st.FramesDup.Value(), st.DeliveryEvents.Value()
			if sent != delivered+st.FramesDropped()+st.PartitionDrops.Value() {
				return fmt.Errorf("city: trunk %s: frames sent and accounted differ", nic.Name())
			}
			if delivered != dirs[1-i].RxFrames.Value() {
				return fmt.Errorf("city: trunk %s: delivered %d, peer received %d", nic.Name(), delivered, dirs[1-i].RxFrames.Value())
			}
		}
	}
	if reg := n.Metrics(); reg != nil {
		r.reg = reg
		if err := registryResidue(n.MetricsSnapshot(), false); err != nil {
			return fmt.Errorf("city: %w", err)
		}
	}
	r.note(served)
	r.events, _ = n.Group().Dispatched()
	r.windows = n.Group().Windows()
	r.heap = 4 * (len(servers) + len(clients))
	if rec := n.Trace(); rec != nil {
		r.frames = txFrames(rec.Records())
	}
	return nil
}
