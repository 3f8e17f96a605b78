package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval recorded from the benchmark's own code,
// around a call into a layer. Host spans time the simulator (world
// build, each Run/RunFor slice); virtual spans time the simulated system
// (each socket call of one request, sharing the request's id).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req,omitempty"`
	Name   string `json:"name"`
	Clock  string `json:"clock"` // "host" or "virtual"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out when the run ends.
// Spans are recorded only in traced runs.
type spanLog struct {
	traced bool
	t0     time.Time
	spans  []span
}

func (l *spanLog) add(s span) int {
	if !l.traced {
		return 0
	}
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// host records a wall-clock span relative to the first one.
func (l *spanLog) host(name string, start time.Time, d time.Duration) {
	if l.t0.IsZero() {
		l.t0 = start
	}
	off := start.Sub(l.t0).Nanoseconds()
	l.add(span{Name: name, Clock: "host", Start: off, End: off + d.Nanoseconds()})
}

// request records one request's socket calls on the virtual clock:
// due -> connected -> first byte -> last byte -> closed.
func (l *spanLog) request(id int, due, connected, first, last, closed time.Duration) {
	root := l.add(span{Req: id, Name: "request", Clock: "virtual", Start: int64(due), End: int64(closed)})
	steps := []struct {
		name       string
		start, end time.Duration
	}{
		{"connect", due, connected},
		{"first_byte", connected, first},
		{"last_byte", first, last},
		{"close", last, closed},
	}
	for _, s := range steps {
		l.add(span{Parent: root, Req: id, Name: s.name, Clock: "virtual", Start: int64(s.start), End: int64(s.end)})
	}
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
