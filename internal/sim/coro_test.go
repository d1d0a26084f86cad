package sim

import (
	"runtime"
	"strings"
	"testing"
)

// runPanic runs e and returns what Run panicked with (nil if it returned).
func runPanic(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// onStack reports whether fn is a frame of the calling goroutine's stack.
func onStack(fn string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// A panic in a process body reaches Run's caller with its original value
// instead of crashing the binary, and the crashed run's coroutines (a
// parked daemon, a sleeper, a pooled shell) are all stopped.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	c := NewCond(e)
	e.SpawnDaemon("daemon", func(p *Proc) { c.Wait(p) })
	e.Spawn("short", func(p *Proc) {})
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(100) })
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	if r := runPanic(e); r != "boom" {
		t.Fatalf("Run panicked with %v, want boom", r)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after the crashed run, want %d", n, base)
	}
}

// A callback that a process dispatches while it yields (drive runs it
// inline on the process's coroutine) panics through that process to
// Run's caller, with its original value.
func TestProcDrivenCallbackPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	type bug struct{ code int }
	driven := false
	e.Spawn("driver", func(p *Proc) {
		e.At(5, func() {
			driven = onStack("(*Proc).yield")
			panic(bug{7})
		})
		p.Sleep(10)
	})
	if r := runPanic(e); r != (bug{7}) {
		t.Fatalf("Run panicked with %v, want bug{7}", r)
	}
	if !driven {
		t.Fatal("the callback did not run inside the sleeping process")
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after the crashed run, want %d", n, base)
	}
}

// A Run that leaves parked daemons, kills a deadlocked proc and recycles
// finished shells retires every coroutine it started.
func TestRunRetiresAllCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	c := NewCond(e)
	sem := NewSemaphore(e, 1)
	for i := 0; i < 3; i++ {
		e.SpawnDaemon("daemon", func(p *Proc) { c.Wait(p) })
	}
	e.Spawn("holder", func(p *Proc) {
		sem.Acquire(p)
		defer sem.Release()
		c.Wait(p) // deadlocked: killed at drain, its defer frees the waiter
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(1)
		sem.Acquire(p)
		c.Wait(p)
	})
	for i := 0; i < 4; i++ {
		e.Spawn("short", func(p *Proc) { p.Sleep(Time(i)) })
	}
	if _, ok := e.Run().(*DeadlockError); !ok {
		t.Fatal("expected DeadlockError")
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after Run, want %d", n, base)
	}
	// The retired engine spawns fresh shells and retires them again.
	e.Spawn("again", func(p *Proc) { p.Sleep(1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after the second Run, want %d", n, base)
	}
}

// A shell respawned by the dispatch that follows its own life's end (the
// pool is LIFO, so the next spawn reuses it) runs the new body.
func TestShellRespawnedAtItsCompletionRunsNewBody(t *testing.T) {
	e := New()
	var first, second *Proc
	ran := ""
	first = e.Spawn("first", func(p *Proc) {
		e.At(e.Now(), func() {
			second = e.Spawn("second", func(q *Proc) {
				q.Sleep(1)
				ran = q.Name()
			})
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("the respawn did not reuse the just-finished shell")
	}
	if ran != "second" {
		t.Fatalf("respawned shell ran %q, want the new body", ran)
	}
}

// ProcSwitches counts the wakes that resumed a process other than the one
// driving dispatch; the rest of WakeHandoffs are own-wake resumes.
func TestProcSwitchesSplitWakeHandoffs(t *testing.T) {
	e := New()
	ping, pong := NewCond(e), NewCond(e)
	e.SpawnDaemon("pong", func(p *Proc) {
		for {
			pong.Wait(p)
			ping.Signal()
		}
	})
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1) // own wake: no switch
			pong.Signal()
			ping.Wait(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two starts, then per round trip one own wake and two switches.
	if e.WakeHandoffs() != 32 || e.ProcSwitches() != 22 {
		t.Fatalf("wakes %d switches %d, want 32 and 22", e.WakeHandoffs(), e.ProcSwitches())
	}
}
