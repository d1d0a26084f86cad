//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// procKilled is the sentinel panic value used to unwind a killed process.
type procKilled struct{ name string }

// Proc is a cooperative simulation process. A Proc runs as a coroutine
// (iter.Pull) and only while the engine has resumed it; it must yield (by
// sleeping or blocking) to let simulation time advance. All Proc methods
// must be called from the Proc's own body.
//
// Proc shells (struct plus coroutine) are pooled: when a body returns, the
// shell parks on Engine.procPool and its coroutine suspends awaiting the
// next spawn, so steady-state process churn (the swap-out daemons spawn
// hundreds of thousands of short-lived processes per run) allocates
// nothing. Recycling never perturbs dispatch order: spawn consumes exactly
// the same two sequence numbers (process id, start event) whether the
// shell is fresh or pooled.
type Proc struct {
	e         *Engine
	id        uint64
	name      string
	daemon    bool
	body      func(*Proc) // current life's body; nil between lives
	killed    bool
	parkedIdx int    // index in Engine.parkedList, -1 when not parked
	waitOn    string // label of the primitive currently parked on
	parkedAt  Time   // when the current park began

	resume  func() (struct{}, bool) // engine loop -> proc: run until the next suspend
	stop    func()                  // ends the coroutine (retirement)
	suspend func(struct{}) bool     // proc -> engine loop; false once stopped
}

// Spawn starts fn as a new process at the current simulation time. The
// process body runs when the engine reaches the start event. When fn
// returns, the process ends.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, false, fn)
}

// SpawnDaemon starts a process that is allowed to be parked forever when
// the simulation ends (e.g. servers waiting for requests that will never
// come). Daemons do not trigger DeadlockError.
func (e *Engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, true, fn)
}

func (e *Engine) spawn(name string, daemon bool, fn func(p *Proc)) *Proc {
	e.seq++
	var p *Proc
	if k := len(e.procPool); k > 0 {
		p = e.procPool[k-1]
		e.procPool[k-1] = nil
		e.procPool = e.procPool[:k-1]
	} else {
		p = &Proc{e: e}
		p.resume, p.stop = iter.Pull(p.lives)
		e.shells = append(e.shells, p)
	}
	p.id = e.seq
	p.name = name
	p.daemon = daemon
	p.killed = false
	p.parkedIdx = -1
	p.body = fn
	e.schedule(e.now, evStart, nil, p)
	return p
}

// lives is a shell's coroutine: one iteration per life. Each life runs the
// body, recycles the shell, then suspends until the next spawn's start
// event resumes it. The shell is recycled *before* the suspend, so an
// event dispatched right after this life ends may already respawn it.
// Retirement (Engine.retire) stops the coroutine between lives.
func (p *Proc) lives(suspend func(struct{}) bool) {
	p.suspend = suspend
	for {
		// A start event discarded at teardown (livelock or abort) leaves
		// the shell killed before its body ever ran: skip straight to
		// recycling.
		if !p.killed {
			p.run()
		}
		p.e.current = nil
		p.body = nil
		p.e.procPool = append(p.e.procPool, p)
		if !suspend(struct{}{}) {
			return
		}
	}
}

// run executes one life of the process body. A kill unwinds the body with
// procKilled, which ends the life like a normal return. Any other panic
// propagates: iter.Pull re-raises it from the resume call in Engine.loop,
// so it reaches Run's caller with its original value.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(r)
			}
		}
	}()
	p.body(p)
}

// yield relinquishes the processor. The process keeps dispatching events
// itself (see Engine.drive) until its own wake comes up, in which case it
// continues with no switch at all; when another process runs next, it
// suspends and the engine loop resumes that one. If the process was killed
// while parked (or its coroutine stopped), yield panics with procKilled to
// unwind the process body (running defers).
func (p *Proc) yield() {
	if !p.e.drive(p) && !p.suspend(struct{}{}) {
		p.killed = true
	}
	if p.killed {
		panic(procKilled{p.name})
	}
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.e.now }

// isParked reports whether p is blocked on a primitive with no wake-up
// event pending. Killed procs are never parked.
func (p *Proc) isParked() bool { return p.parkedIdx >= 0 }

// Sleep suspends the process for d pcycles. d must be >= 0.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: Sleep(%d) negative", p.name, d))
	}
	p.e.schedule(p.e.now+d, evWake, nil, p)
	p.yield()
}

// SleepUntil suspends the process until absolute time t (no-op if t <= now).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.e.now {
		return
	}
	p.Sleep(t - p.e.now)
}

// park blocks the process with no wake-up event scheduled; some other actor
// must call unpark. Used by the synchronization primitives; `on` labels the
// primitive for the blocked-proc dump of DeadlockError/LivelockError.
func (p *Proc) park(on string) {
	p.waitOn = on
	p.parkedAt = p.e.now
	p.e.addParked(p)
	p.yield()
}

// unpark schedules p to resume at the current time. Must only be called for
// a parked process.
func (e *Engine) unpark(p *Proc) {
	if p.parkedIdx < 0 {
		panic("sim: unpark of non-parked process " + p.name)
	}
	e.removeParked(p)
	e.schedule(e.now, evWake, nil, p)
}
