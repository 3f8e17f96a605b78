package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:"). Tests use it to see which goroutine
// dispatched an event.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// dispatchSite is a Tracer that records, for each dispatched proc
// resume, the goroutine that dispatched it.
type dispatchSite struct{ by map[string][]int64 }

func (d *dispatchSite) EventDispatch(at Time, proc string) {
	if proc != "" {
		d.by[proc] = append(d.by[proc], goid())
	}
}
func (d *dispatchSite) ProcPark(Time, string)   {}
func (d *dispatchSite) ProcUnpark(Time, string) {}

// pingPongProcs spawns a and b on s, which hand control back and forth
// rounds times with Unpark/Park, each recording its goroutine id. Every
// hop after the first is a direct proc-to-proc handoff: the parking
// proc's partner is the only event due.
func pingPongProcs(s *Sim, rounds int, ids map[string]int64) (a, b *Proc) {
	a = s.Spawn("a", func(p *Proc) {
		ids["a"] = goid()
		for i := 0; i < rounds; i++ {
			b.Unpark()
			p.Park()
		}
	})
	b = s.Spawn("b", func(p *Proc) {
		ids["b"] = goid()
		for i := 0; i < rounds; i++ {
			p.Park()
			a.Unpark()
		}
	})
	return a, b
}

// TestProcToProcHandoff: once running, a and b resume each other
// directly; the home goroutine dispatches neither resume.
func TestProcToProcHandoff(t *testing.T) {
	s := New(1)
	site := &dispatchSite{by: map[string][]int64{}}
	s.SetTracer(site)
	ids := map[string]int64{}
	pingPongProcs(s, 5, ids)
	home := goid()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Home starts a; from then on a and b resume each other, b's start
	// included.
	if got := site.by["a"]; len(got) < 2 || got[0] != home {
		t.Fatalf("a resumes dispatched by %v, want the first from home goroutine %d", got, home)
	}
	want := map[string][]int64{"a": site.by["a"][1:], "b": site.by["b"]}
	for name, other := range map[string]string{"a": "b", "b": "a"} {
		for i, g := range want[name] {
			if g != ids[other] {
				t.Fatalf("%s resume %d dispatched by goroutine %d, want %s's goroutine %d", name, i, g, other, ids[other])
			}
		}
	}
}

// TestOwnResumeKeepsRunning: a proc whose own resume is the next event
// dispatches it itself and keeps running; control never leaves its
// goroutine.
func TestOwnResumeKeepsRunning(t *testing.T) {
	s := New(1)
	site := &dispatchSite{by: map[string][]int64{}}
	s.SetTracer(site)
	var self int64
	s.Spawn("sleeper", func(p *Proc) {
		self = goid()
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := site.by["sleeper"]
	if len(got) != 11 {
		t.Fatalf("sleeper resumed %d times, want 11", len(got))
	}
	for i, g := range got[1:] {
		if g != self {
			t.Fatalf("wakeup %d dispatched by goroutine %d, want the sleeper's own %d", i+1, g, self)
		}
	}
	if s.Now() != Time(10*time.Millisecond) || s.Dispatched() != 11 {
		t.Fatalf("now %v dispatched %d, want 10ms and 11", s.Now(), s.Dispatched())
	}
}

// TestHandoffKeepsCallbackOrder: a parking proc hands control to the
// home goroutine whenever a callback is next, so same-instant callbacks
// still run before a proc scheduled after them.
func TestHandoffKeepsCallbackOrder(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("p", func(p *Proc) {
		order = append(order, "p1")
		s.After(0, func() { order = append(order, "cb") })
		p.YieldProc()
		order = append(order, "p2")
		s.After(time.Millisecond, func() { order = append(order, "cb2") })
		p.Sleep(time.Millisecond)
		order = append(order, "p3")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "p1 cb p2 cb2 p3"; got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// TestRunUntilSkipsStoppedTimer: a stopped timer on top of the heap must
// not let RunUntil run a later event past its bound.
func TestRunUntilSkipsStoppedTimer(t *testing.T) {
	s := New(1)
	ran := false
	s.After(time.Second, func() {}).Stop()
	s.After(3*time.Second, func() { ran = true })
	if err := s.RunUntil(Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if ran || s.Now() != Time(2*time.Second) {
		t.Fatalf("after RunUntil(2s): 3s event ran=%v, now %v; want not run, 2s", ran, s.Now())
	}
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if !ran || s.Now() != Time(3*time.Second) {
		t.Fatalf("after RunFor(1s): 3s event ran=%v, now %v; want run, 3s", ran, s.Now())
	}
}

// driveModes runs one scenario under every way a sim is driven: a
// standalone Run and RunUntil, and shard 0 of a two-shard Group run
// serially and on worker goroutines.
var driveModes = []struct {
	name  string
	drive func(build func(*Sim)) error
}{
	{"Run", func(build func(*Sim)) error {
		s := New(1)
		build(s)
		return s.Run()
	}},
	{"RunUntil", func(build func(*Sim)) error {
		s := New(1)
		build(s)
		return s.RunUntil(Time(time.Hour))
	}},
	{"GroupSerial", func(build func(*Sim)) error {
		g := NewGroup(1, 2)
		g.SingleThreaded = true
		build(g.Shard(0))
		return g.Run()
	}},
	{"GroupParallel", func(build func(*Sim)) error {
		g := NewGroup(1, 2)
		build(g.Shard(0))
		return g.Run()
	}},
}

// recoverDrive runs drive and returns the panic it raised, if any.
func recoverDrive(drive func(func(*Sim)) error, build func(*Sim)) (r any, err error) {
	defer func() { r = recover() }()
	return nil, drive(build)
}

// TestPanicSurfacesAfterHandoff: a panic in a callback and a panic in a
// proc both surface from every driver after control has passed proc to
// proc.
func TestPanicSurfacesAfterHandoff(t *testing.T) {
	cases := map[string]func(s *Sim){
		"callback": func(s *Sim) {
			pingPongProcs(s, 5, map[string]int64{})
			s.After(time.Millisecond, func() { panic("boom in callback") })
			s.Spawn("waiter", func(p *Proc) { p.Sleep(time.Second) })
		},
		"proc": func(s *Sim) {
			pingPongProcs(s, 5, map[string]int64{})
			s.Spawn("c", func(p *Proc) {
				p.Sleep(time.Millisecond)
				panic("boom in proc")
			})
		},
	}
	for _, m := range driveModes {
		for where, build := range cases {
			t.Run(m.name+"/"+where, func(t *testing.T) {
				r, err := recoverDrive(m.drive, build)
				if r == nil {
					t.Fatalf("no panic surfaced (err %v)", err)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "boom in "+where) {
					t.Fatalf("panic %q does not carry the original %q", msg, "boom in "+where)
				}
			})
		}
	}
}

// TestRunErrorText pins the deadlock and deadline messages, reached after
// proc-to-proc handoffs.
func TestRunErrorText(t *testing.T) {
	s := New(1)
	pingPongProcs(s, 3, map[string]int64{})
	s.Spawn("stuck", func(p *Proc) { p.Park() })
	want := "sim: deadlock at 0s: 1 foreground process(es) parked with no pending events: [stuck]"
	if err := s.Run(); err == nil || err.Error() != want {
		t.Fatalf("deadlock error %v, want %q", err, want)
	}

	s = New(1)
	s.Deadline = Time(time.Second)
	pingPongProcs(s, 3, map[string]int64{})
	s.Every(time.Millisecond, func() {})
	s.Spawn("stuck", func(p *Proc) { p.Park() })
	want = "sim: virtual deadline 1s exceeded (now 1.001s, fg=1)"
	if err := s.Run(); err == nil || err.Error() != want {
		t.Fatalf("deadline error %v, want %q", err, want)
	}

	for _, single := range []bool{true, false} {
		g := NewGroup(1, 2)
		g.SingleThreaded = single
		pingPongProcs(g.Shard(0), 3, map[string]int64{})
		g.Shard(0).Spawn("stuck0", func(p *Proc) { p.Park() })
		g.Shard(1).Spawn("stuck1", func(p *Proc) { p.Park() })
		want = "sim: deadlock at 0s: 2 foreground process(es) parked with no pending events: [stuck0 stuck1]"
		if err := g.Run(); err == nil || err.Error() != want {
			t.Fatalf("group (single=%v) deadlock error %v, want %q", single, err, want)
		}

		g = NewGroup(1, 2)
		g.SingleThreaded = single
		g.Deadline = Time(10 * time.Millisecond)
		pingPongProcs(g.Shard(0), 3, map[string]int64{})
		g.Shard(1).Every(time.Millisecond, func() {})
		g.Shard(0).Spawn("waiter", func(p *Proc) { p.Park() })
		want = "sim: virtual deadline 10ms exceeded (now 11ms)"
		if err := g.Run(); err == nil || err.Error() != want {
			t.Fatalf("group (single=%v) deadline error %v, want %q", single, err, want)
		}
	}
}

// BenchmarkProcPingPong: two procs waking each other with Unpark/Park,
// one direct proc-to-proc switch per op.
func BenchmarkProcPingPong(b *testing.B) {
	s := New(1)
	pingPongProcs(s, b.N, map[string]int64{})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSleep: one proc sleeping alone, whose own wakeup is
// always the next event.
func BenchmarkProcSleep(b *testing.B) {
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
