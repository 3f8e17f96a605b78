package kern

import (
	"fmt"

	"repro/internal/sim"
)

// Process is a simulated address space on a host. Threads are sim.Procs
// spawned through the process so that exit can be observed; protocol
// state owned by the process (library sessions) is cleaned up through
// exit watchers, which is how the operating-system server learns that it
// must abort orphaned connections.
type Process struct {
	Host *Host
	PID  int
	Name string

	exited bool
	onExit []func()
}

// NewProcess creates a process on the host.
func (h *Host) NewProcess(name string) *Process {
	p := &Process{Host: h, PID: h.nextPID, Name: fmt.Sprintf("%s/%s", h.Name, name)}
	h.nextPID++
	h.procs[p.PID] = p
	return p
}

// Exited reports whether the process has exited.
func (p *Process) Exited() bool { return p.exited }

// OnExit registers a callback to run when the process exits (the kernel's
// death notification). Registering on an exited process runs the callback
// immediately.
func (p *Process) OnExit(fn func()) {
	if p.exited {
		fn()
		return
	}
	p.onExit = append(p.onExit, fn)
}

// Exit terminates the process: death notifications fire synchronously.
// Threads are not forcibly descheduled (the simulation has no preemption
// to model); long-running service threads must be registered to stop via
// OnExit.
func (p *Process) Exit() {
	if p.exited {
		return
	}
	p.exited = true
	delete(p.Host.procs, p.PID)
	for _, fn := range p.onExit {
		fn()
	}
	p.onExit = nil
}

// GoDaemon spawns a daemon (service) thread in this process.
func (p *Process) GoDaemon(name string, body func(t *sim.Proc)) *sim.Proc {
	return p.Host.Sim.SpawnDaemon(p.Name+"."+name, body)
}

// Processes returns the number of live processes on the host.
func (h *Host) Processes() int { return len(h.procs) }
