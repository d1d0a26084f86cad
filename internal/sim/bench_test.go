package sim

import "testing"

// BenchmarkAt measures the pooled schedule-then-fire cycle: each iteration
// schedules one future event while the engine drains, so every slot comes
// from the free list.
func BenchmarkAt(b *testing.B) {
	b.ReportAllocs()
	e := New()
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			e.After(1, step)
		}
	}
	e.After(1, step)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSameInstantStorm exercises the ready-queue bypass: events
// scheduled at the current instant skip the heap entirely.
func BenchmarkSameInstantStorm(b *testing.B) {
	b.ReportAllocs()
	e := New()
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			e.At(e.Now(), step) // t == now: ready queue, not heap
		}
	}
	e.At(0, step)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkUnparkStorm measures park/unpark handoff between two procs via
// a condition variable (the synchronization-primitive hot path).
func BenchmarkUnparkStorm(b *testing.B) {
	b.ReportAllocs()
	e := New()
	c := NewCond(e)
	e.SpawnDaemon("waiter", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	e.Spawn("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Signal()
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcHandoff measures the cross-process switch that dominates
// real runs: two processes ping-pong through a pair of Conds, so every
// wake resumes the other process's coroutine through the engine loop.
// (BenchmarkProcSwitch has one process wake itself and never switches.)
// One op is a round trip, i.e. two handoffs, plus one own-wake Sleep that
// advances the clock so each instant's ready FIFO stays bounded, as in
// real runs. The steady state must not allocate.
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	e := New()
	ping, pong := NewCond(e), NewCond(e)
	e.SpawnDaemon("pong", func(p *Proc) {
		for {
			pong.Wait(p)
			ping.Signal()
		}
	})
	var allocs float64
	e.Spawn("ping", func(p *Proc) {
		roundTrip := func() {
			p.Sleep(1)
			pong.Signal()
			ping.Wait(p)
		}
		allocs = testing.AllocsPerRun(100, roundTrip) // also warms both procs
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip()
		}
		b.StopTimer()
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if allocs != 0 && !raceEnabled {
		b.Fatalf("handoff round trip allocates %v/op, want 0", allocs)
	}
}

// BenchmarkCancel measures the schedule + cancel + slot-recycle cycle.
// The chain advances time each step, so canceled slots are drained and
// reused instead of accumulating in the heap.
func BenchmarkCancel(b *testing.B) {
	b.ReportAllocs()
	e := New()
	fn := func() {}
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			e.Cancel(e.After(1, fn))
			e.After(1, step)
		}
	}
	e.After(1, step)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
