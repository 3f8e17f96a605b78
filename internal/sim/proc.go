package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Proc is a simulated thread of execution: a goroutine whose progress is
// interleaved with the event loop so that only one of them runs at a time.
// Procs block in virtual time with Sleep and Park, and are woken with
// Unpark or by timers.
//
// A foreground Proc (created with Spawn) keeps Sim.Run alive until it
// exits; a daemon Proc (SpawnDaemon) does not, and is the right choice for
// service loops such as protocol timers and receive threads.
type Proc struct {
	sim    *Sim
	name   string
	daemon bool

	resume        chan struct{}
	parked        bool
	unparkPending bool   // an Unpark arrived while the proc was running
	pendingResume *event // the event that will resume this proc, if any

	exited bool
}

// Spawn starts a foreground simulated process. The body begins executing
// at the current virtual time, after already-queued events at this instant.
func (s *Sim) Spawn(name string, body func(p *Proc)) *Proc {
	return s.spawn(name, body, false)
}

// SpawnDaemon starts a daemon simulated process; Run does not wait for it.
func (s *Sim) SpawnDaemon(name string, body func(p *Proc)) *Proc {
	return s.spawn(name, body, true)
}

func (s *Sim) spawn(name string, body func(p *Proc), daemon bool) *Proc {
	p := &Proc{sim: s, name: name, daemon: daemon, resume: make(chan struct{})}
	if !daemon {
		s.fg++
		s.everFg = true
	}
	s.procs[p] = struct{}{}
	go func() {
		<-p.resume // wait for the scheduler to start us
		defer func() {
			if r := recover(); r != nil {
				s.panicV = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
			p.exited = true
			delete(s.procs, p)
			if !p.daemon {
				s.fg--
			}
			if q := s.nextProc(); q != nil {
				q.resume <- struct{}{}
			} else {
				s.yield <- struct{}{}
			}
		}()
		body(p)
	}()
	p.pendingResume = s.schedule(s.now, nil, p)
	return p
}

// Sim returns the simulator this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// yieldToScheduler gives up control until p's resume event is
// dispatched. If the run's next event resumes another Proc, control goes
// straight to it; if it resumes p, p keeps running without a switch;
// otherwise control returns to the run's home goroutine.
func (p *Proc) yieldToScheduler() {
	s := p.sim
	switch q := s.nextProc(); q {
	case p:
		return
	case nil:
		s.yield <- struct{}{}
	default:
		q.resume <- struct{}{}
	}
	<-p.resume
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		p.YieldProc()
		return
	}
	p.pendingResume = p.sim.schedule(p.sim.now.Add(d), nil, p)
	p.parked = true
	p.yieldToScheduler()
	p.parked = false
}

// YieldProc reschedules the process at the current instant, letting other
// events queued for this instant run first.
func (p *Proc) YieldProc() {
	p.pendingResume = p.sim.schedule(p.sim.now, nil, p)
	p.parked = true
	p.yieldToScheduler()
	p.parked = false
}

// Park blocks the process until another party calls Unpark. If an Unpark
// arrived since the last Park, it consumes that token and returns
// immediately (so wakeups are never lost).
func (p *Proc) Park() {
	if p.unparkPending {
		p.unparkPending = false
		return
	}
	if p.sim.tracer != nil {
		p.sim.tracer.ProcPark(p.sim.now, p.name)
	}
	p.parked = true
	p.yieldToScheduler()
	p.parked = false
}

// ParkTimeout parks for at most d. It reports whether the process was
// explicitly unparked (true) as opposed to timing out (false).
func (p *Proc) ParkTimeout(d time.Duration) bool {
	if p.unparkPending {
		p.unparkPending = false
		return true
	}
	timedOut := false
	t := p.sim.After(d, func() {
		timedOut = true
		p.Unpark()
	})
	p.Park()
	if !timedOut {
		t.Stop()
	}
	return !timedOut
}

// Unpark wakes a parked process, or banks a wakeup token if it is
// currently running. Unparking an exited process is a no-op. Multiple
// Unparks coalesce into a single token.
func (p *Proc) Unpark() {
	if p.exited {
		return
	}
	if p.sim.tracer != nil {
		p.sim.tracer.ProcUnpark(p.sim.now, p.name)
	}
	if !p.parked {
		p.unparkPending = true
		return
	}
	if p.pendingResume != nil {
		// Already scheduled to wake (e.g. racing with a timeout); the
		// earlier of the two wins, so just bank the token.
		p.unparkPending = true
		return
	}
	p.pendingResume = p.sim.schedule(p.sim.now, nil, p)
}
