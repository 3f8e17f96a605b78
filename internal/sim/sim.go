// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives everything in this repository: simulated hosts, CPUs,
// network links, kernels, protocol stacks, and application processes all
// advance a shared virtual clock by scheduling events on a single Sim.
//
// Concurrency model: the scheduler executes exactly one event at a time.
// Simulated processes (Proc) are goroutines, but exactly one goroutine
// holds control at any moment and control passes through unbuffered
// channels, so logically the whole simulation is single-threaded and fully
// deterministic for a given seed. Simulation state may therefore be
// mutated freely from event callbacks and from running Procs without
// locking.
//
// Each run has a home goroutine: the caller of Run or RunUntil, or the
// shard worker executing a Group window. The home goroutine runs every
// callback and resource grant. A Proc that parks or exits looks at the
// run's next event itself: if that event resumes a Proc, it dispatches it
// and passes control straight to that Proc (or, when the Proc is itself
// next, simply keeps running), so a resume costs at most one goroutine
// switch. Any other next step (a callback, the end of the run, a Stop, a
// captured panic) is left to the home goroutine. Callbacks stay off Proc
// stacks on purpose: thousands of parked Procs would otherwise each grow
// their stack to the depth of the deepest callback chain they ever ran.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// An event is a scheduled callback or process resumption. Events are
// pooled on the owning Sim's free list; gen counts reuses so that stale
// Timer handles (whose event has fired and been recycled) are detected
// instead of cancelling an unrelated event.
//
// The full ordering key is (at, band, origin, seq). Locally scheduled
// events are band 0 with origin 0, so for a standalone Sim the key
// degenerates to the classic (at, seq) FIFO tie-break. Cross-shard
// deliveries (see ScheduleRemote) are band 1, keyed by a stable origin
// id and a per-origin sequence number: the key is intrinsic to the
// message, never to which shard happened to carry it, which is what
// makes the merged order invariant under resharding.
type event struct {
	at      Time
	seq     uint64 // tie-break: FIFO among events at the same instant
	origin  uint64 // band 1: stable source-stream id (0 for band 0)
	fn      func()
	proc    *Proc      // if non-nil, resume this process instead of calling fn
	rw      *resWaiter // if non-nil, a resource grant expiry (UseEvent)
	band    uint8      // 0 local, 1 remote delivery
	stopped bool
	index   int    // heap index, -1 when not queued
	gen     uint64 // incremented each time the event is recycled
}

// Timer is a handle to a scheduled event, returned by At, After, and Every.
type Timer struct {
	ev        *event
	gen       uint64 // ev's generation when the handle was issued
	recurring bool
	dead      bool // stops a recurring timer across reschedules
}

// Stop cancels the timer. For one-shot timers it reports whether the event
// had not yet fired; for recurring timers it always stops future firings
// and reports whether the timer was still live.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil {
		return false
	}
	if t.recurring {
		was := !t.dead
		t.dead = true
		if t.ev.gen == t.gen {
			t.ev.stopped = true
		}
		return was
	}
	if t.ev.gen != t.gen || t.ev.stopped || t.ev.index < 0 {
		return false // already fired (and recycled) or already stopped
	}
	t.ev.stopped = true
	return true
}

// eventHeap is a 4-ary min-heap of events ordered by (at, band, origin,
// seq). Keys are unique, so the pop order is a total order independent of
// the heap's shape. Each event's index is kept current because Timer.Stop
// reads it.
type eventHeap []*event

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.band != b.band {
		return a.band < b.band
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *event) {
	i := len(*h)
	*h = append(*h, ev)
	q := *h
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	top.index = -1
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(last) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = last
	last.index = i
	return top
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	now     Time
	events  eventHeap
	seq     uint64
	yield   chan struct{} // a running Proc signals the scheduler here
	fg      int           // live foreground (non-daemon) processes
	everFg  bool          // whether any foreground process was ever spawned
	procs   map[*Proc]struct{}
	running bool
	stopped bool
	panicV  any
	tracer  Tracer
	free    []*event // recycled events (the pool behind the heap)

	// The current run's bounds, which a parking Proc checks before it
	// dispatches the next resume itself (see nextProc).
	limit   Time // latest event time the run may dispatch
	untilFg bool // Run: stop once every foreground process has exited

	// Sharding state. A standalone Sim has group == nil and none of it
	// is touched on the hot path.
	group      *Group
	shardID    int
	outbox     []remoteMsg // cross-shard sends staged until the window barrier
	dispatched uint64      // events executed (per-shard accounting)
	origins    uint64      // local origin-id allocator when no group exists

	// Deadline is the virtual time at which Run gives up and returns an
	// error. It guards against livelock (for example, protocol timers that
	// tick forever while a workload is wedged). The zero value means the
	// default of one virtual hour.
	Deadline Time

	seed int64
	rng  *rand.Rand
}

// New returns a simulator with a deterministic random source derived from
// seed.
func New(seed int64) *Sim {
	return &Sim{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Tracer receives scheduler-level callbacks: one per dispatched event
// and one per explicit process park/unpark. Implementations must be
// passive — they may record but must not schedule events or advance
// time, or determinism is lost. The flight recorder (internal/trace)
// implements this.
type Tracer interface {
	EventDispatch(at Time, proc string)
	ProcPark(at Time, proc string)
	ProcUnpark(at Time, proc string)
}

// SetTracer installs t as the scheduler tracer (nil to disable). When no
// tracer is installed the hooks cost a single nil check.
func (s *Sim) SetTracer(t Tracer) { s.tracer = t }

// Seed returns the seed the simulator was created with. Components that
// need their own deterministic random streams (for example per-link
// fault injection) derive them from this.
func (s *Sim) Seed() int64 { return s.seed }

// Rand returns the simulation's deterministic random source.
//
// Deprecated for new code: draws interleave with every other caller, so
// values depend on global event order. Components that must stay stable
// under resharding should use Stream instead.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// StreamSeed mixes a simulation seed with a component name (FNV-1a over
// the name, then a splitmix64 finalizer) into an independent stream
// seed. It depends only on (seed, name) — never on creation order,
// traffic, or shard placement.
func StreamSeed(seed int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	z := uint64(seed) ^ h
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Stream returns an independent deterministic random source keyed by
// (sim seed, name). Every shard of a Group carries the same seed, so a
// named stream yields the same values no matter which shard its owner
// lands on.
func (s *Sim) Stream(name string) *rand.Rand {
	return rand.New(rand.NewSource(StreamSeed(s.seed, name)))
}

func (s *Sim) schedule(at Time, fn func(), p *Proc) *event {
	if at < s.now {
		at = s.now
	}
	s.seq++
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.at, ev.seq, ev.fn, ev.proc = at, s.seq, fn, p
	} else {
		ev = &event{at: at, seq: s.seq, fn: fn, proc: p}
	}
	s.events.push(ev)
	return ev
}

// recycle returns a dispatched or cancelled event to the free list.
// Bumping gen invalidates any outstanding Timer handles to it.
func (s *Sim) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.proc, ev.rw = nil, nil, nil
	ev.band, ev.origin = 0, 0
	ev.stopped = false
	s.free = append(s.free, ev)
}

// ScheduleRemote inserts a band-1 delivery event keyed by (at, origin,
// oseq). It is how merged cross-shard messages enter a shard's queue: at
// equal times all local (band-0) events sort first, then deliveries in
// (origin, oseq) order. Keys are unique, so insertion order is
// irrelevant — which is what lets the barrier merge stay deterministic.
func (s *Sim) ScheduleRemote(at Time, origin, oseq uint64, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("sim: lookahead violation: remote delivery at %v but shard %d is already at %v", at, s.shardID, s.now))
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.at, ev.seq, ev.fn, ev.proc = at, oseq, fn, nil
	} else {
		ev = &event{at: at, seq: oseq, fn: fn}
	}
	ev.band, ev.origin = 1, origin
	s.events.push(ev)
}

// remoteMsg is one staged cross-shard delivery awaiting the barrier.
type remoteMsg struct {
	dst    *Sim
	at     Time
	origin uint64
	oseq   uint64
	fn     func()
}

// SendRemote schedules fn at time `at` on dst with the band-1 key
// (origin, oseq). A same-sim send is inserted immediately (the heap
// handles any future time); a cross-shard send is staged in the sender's
// outbox and merged by the Group at the next window barrier. Both paths
// give the event the identical key, so the executed order does not
// depend on whether the two endpoints shared a shard.
func (s *Sim) SendRemote(dst *Sim, at Time, origin, oseq uint64, fn func()) {
	if dst == s {
		s.ScheduleRemote(at, origin, oseq, fn)
		return
	}
	if s.group == nil || dst.group != s.group {
		panic("sim: SendRemote between sims that do not share a Group")
	}
	s.outbox = append(s.outbox, remoteMsg{dst: dst, at: at, origin: origin, oseq: oseq, fn: fn})
}

// AllocOrigin hands out a stable band-1 origin id. Allocation follows
// topology construction order, which is identical across shard counts,
// so origins are reshard-invariant. Group shards share one allocator.
func (s *Sim) AllocOrigin() uint64 {
	if s.group != nil {
		return s.group.allocOrigin()
	}
	s.origins++
	return s.origins
}

// Group returns the shard group this sim belongs to, or nil for a
// standalone sim.
func (s *Sim) Group() *Group { return s.group }

// ShardID returns this sim's index within its Group (0 standalone).
func (s *Sim) ShardID() int { return s.shardID }

// Dispatched returns the number of events this sim has executed.
func (s *Sim) Dispatched() uint64 { return s.dispatched }

// At schedules fn to run at virtual time t (or now, if t is in the past).
func (s *Sim) At(t Time, fn func()) *Timer {
	ev := s.schedule(t, fn, nil)
	return &Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	ev := s.schedule(s.now.Add(d), fn, nil)
	return &Timer{ev: ev, gen: ev.gen}
}

// Every schedules fn to run every period, starting one period from now,
// until the returned Timer is stopped. The callback runs as a daemon: it
// does not keep Run alive.
func (s *Sim) Every(period time.Duration, fn func()) *Timer {
	t := &Timer{recurring: true}
	var tick func()
	tick = func() {
		if t.dead {
			return
		}
		fn()
		if t.dead {
			return
		}
		t.ev = s.schedule(s.now.Add(period), tick, nil)
		t.gen = t.ev.gen
	}
	t.ev = s.schedule(s.now.Add(period), tick, nil)
	t.gen = t.ev.gen
	return t
}

// Stop makes Run return after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Idle reports whether no events remain queued.
func (s *Sim) Idle() bool { return s.pending() == 0 }

func (s *Sim) pending() int {
	n := 0
	for _, ev := range s.events {
		if !ev.stopped {
			n++
		}
	}
	return n
}

// Run executes events in virtual-time order until every foreground process
// has exited, Stop is called, or the event queue drains. It returns an
// error on deadlock (foreground processes parked with no pending events)
// or when the virtual Deadline is exceeded.
func (s *Sim) Run() error {
	deadline := s.Deadline
	if deadline == 0 {
		deadline = Time(int64(time.Hour))
	}
	if s.group != nil {
		return fmt.Errorf("sim: shard %d belongs to a Group; drive it with Group.Run", s.shardID)
	}
	if s.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	s.stopped = false
	s.limit, s.untilFg = deadline, true
	for !s.stopped {
		if s.everFg && s.fg == 0 {
			// All foreground work is done.
			return nil
		}
		ev := s.peek()
		if ev == nil {
			if s.fg > 0 {
				return fmt.Errorf("sim: deadlock at %v: %d foreground process(es) parked with no pending events: %s",
					s.now, s.fg, s.parkedNames())
			}
			return nil
		}
		if ev.at > deadline {
			return fmt.Errorf("sim: virtual deadline %v exceeded (now %v, fg=%d)", Time(deadline), ev.at, s.fg)
		}
		s.dispatchTop()
		if s.panicV != nil {
			panic(s.panicV)
		}
	}
	return nil
}

// peek returns the earliest live event without removing it, discarding
// cancelled events as it goes. Nil means the queue is empty.
func (s *Sim) peek() *event {
	for len(s.events) > 0 {
		ev := s.events[0]
		if !ev.stopped {
			return ev
		}
		s.events.pop()
		s.recycle(ev)
	}
	return nil
}

// runWindow executes every event strictly before end, in key order. It
// is the per-shard inner loop of a Group window: no fg/deadline checks
// (the Group applies those at barriers), and it stops early on Stop or
// on a captured proc panic so the coordinator can surface it.
func (s *Sim) runWindow(end Time) {
	s.limit, s.untilFg = end-1, false
	for !s.stopped && s.panicV == nil {
		ev := s.peek()
		if ev == nil || ev.at >= end {
			return
		}
		s.dispatchTop()
	}
}

// RunFor advances the simulation by d, executing all events scheduled in
// [now, now+d]. Foreground completion does not stop it; it is intended for
// draining (for example TIME_WAIT expiry) and for tests.
func (s *Sim) RunFor(d time.Duration) error { return s.RunUntil(s.now.Add(d)) }

// RunUntil executes all events scheduled at or before t and then sets the
// clock to t.
func (s *Sim) RunUntil(t Time) error {
	if s.group != nil {
		return fmt.Errorf("sim: shard %d belongs to a Group; drive it with Group.RunUntil", s.shardID)
	}
	if s.running {
		return fmt.Errorf("sim: RunUntil called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	s.stopped = false
	s.limit, s.untilFg = t, false
	for !s.stopped {
		if ev := s.peek(); ev == nil || ev.at > t {
			break
		}
		s.dispatchTop()
		if s.panicV != nil {
			panic(s.panicV)
		}
	}
	if s.now < t {
		s.now = t
	}
	return nil
}

// dispatchTop pops and executes the earliest event, which the caller has
// found live with peek. It runs on the run's home goroutine. A Proc resume
// returns once control comes back to the home goroutine, which may be
// after several Procs have handed control among themselves.
func (s *Sim) dispatchTop() {
	ev := s.events.pop()
	s.now = ev.at
	if ev.proc != nil {
		s.resumeOf(ev).resume <- struct{}{}
		<-s.yield
		return
	}
	s.dispatched++
	if s.tracer != nil {
		s.tracer.EventDispatch(s.now, "")
	}
	if w := ev.rw; w != nil {
		// Resource grant expired: run the continuation, then hand the
		// resource to the next waiter.
		w.done()
		w.r.release(s)
		w.r.putWaiter(w)
	} else {
		ev.fn()
	}
	s.recycle(ev)
}

// resumeOf accounts for a popped Proc-resume event, recycles it, and
// returns the Proc to resume. No Timer handle refers to a resume event,
// so recycling it before the Proc runs is safe.
func (s *Sim) resumeOf(ev *event) *Proc {
	s.dispatched++
	p := ev.proc
	if s.tracer != nil {
		s.tracer.EventDispatch(s.now, p.name)
	}
	p.pendingResume = nil
	s.recycle(ev)
	return p
}

// nextProc is called by a Proc that is parking or exiting. If the run's
// next step is a Proc resume within the run's bounds, it dispatches that
// event and returns the Proc to resume; otherwise it returns nil and the
// next step belongs to the home goroutine. The checks mirror the home
// loops in Run, RunUntil, and runWindow, so the executed order is the
// same whichever goroutine dispatches.
func (s *Sim) nextProc() *Proc {
	if s.stopped || s.panicV != nil || (s.untilFg && s.everFg && s.fg == 0) {
		return nil
	}
	ev := s.peek()
	if ev == nil || ev.proc == nil || ev.at > s.limit {
		return nil
	}
	s.events.pop()
	s.now = ev.at
	return s.resumeOf(ev)
}

func (s *Sim) parkedNames() string {
	var names []string
	for p := range s.procs {
		if p.parked {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "(none)"
	}
	return fmt.Sprint(names)
}

// ParkedProcs lists the names of currently-parked processes (diagnostics).
func (s *Sim) ParkedProcs() []string {
	var names []string
	for p := range s.procs {
		if p.parked {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}
