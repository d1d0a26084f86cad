package machine

import "nwcache/internal/sim"

// AttachProgress installs a supervision progress probe on the
// machine's engine (sim.Engine.AttachProgress): dispatch publishes
// the simulated clock into p at every probe boundary and honors a
// watchdog's RequestAbort there, unwinding the run into a
// *sim.AbortError. Call after New and before Run, like AttachFaults;
// a nil p is a no-op.
func (m *Machine) AttachProgress(p *sim.Progress) {
	if p == nil {
		return
	}
	m.E.AttachProgress(p)
}
