package machine

import (
	"nwcache/internal/disk"
	"nwcache/internal/optical"
	"nwcache/internal/sim"
	"nwcache/internal/vm"
)

// replaceLoop is one node's page-replacement daemon: whenever the free
// frame count sinks to the OS floor, it picks LRU victims and either frees
// them (clean) or starts swap-outs (dirty), with a bounded number of
// swap-outs outstanding.
func (m *Machine) replaceLoop(p *sim.Proc, n *Node) {
	for {
		if !n.Pool.BelowFloor() {
			n.Pool.Pressure.Wait(p)
			continue
		}
		page, ok := n.Pool.VictimLRU()
		if !ok {
			// Every frame is reserved or detached; wait for change.
			n.Pool.FrameFreed.Wait(p)
			continue
		}
		en := m.Table.Get(page)
		lockT0 := p.Now()
		en.Lock.Lock(p)
		_ = lockT0
		if en.State != vm.Resident || en.Owner != n.ID || !n.Pool.Contains(page) {
			en.Lock.Unlock() // raced with a concurrent transition; retry
			continue
		}
		// Access rights are being downgraded: machine-wide TLB shootdown.
		m.shootdown(n, page)
		if !en.Dirty {
			n.Pool.Remove(page)
			en.State = vm.Unmapped
			en.Owner = -1
			en.Arrived.Broadcast()
			en.Lock.Unlock()
			n.CleanEvicts++
			m.Spans.Instant(m.swapTrack(n.ID), "evict.clean", p.Now(), page)
			m.invalidateCaches(page)
			continue
		}
		// Dirty: detach the frame (data still in it until taken) and mark
		// the page in transit so faulters wait out the swap.
		n.Pool.Unmap(page)
		en.State = vm.Transit
		en.TransitBy = -1
		en.LastSwapper = n.ID
		en.Owner = -1
		en.Lock.Unlock()
		m.invalidateCaches(page)
		n.SwapOuts++
		start := p.Now()
		n.swapSem.Acquire(p) // bound outstanding swap-outs
		job := n.takeJob(m)
		job.en, job.page, job.start = en, page, start
		m.E.Spawn(n.swapName, job.run)
	}
}

// takeJob pops a pooled swap job (or builds one with its process body
// pre-bound). The body returns the job to the pool when the swap-out
// completes, so steady-state swap issue allocates nothing beyond the
// process itself.
func (n *Node) takeJob(m *Machine) *swapJob {
	if k := len(n.swapJobs); k > 0 {
		j := n.swapJobs[k-1]
		n.swapJobs = n.swapJobs[:k-1]
		return j
	}
	j := &swapJob{}
	if m.Kind == NWCache {
		j.run = func(sp *sim.Proc) {
			m.swapToRing(sp, n, j.en, j.page, j.start)
			j.en = nil
			n.swapJobs = append(n.swapJobs, j)
		}
	} else {
		j.run = func(sp *sim.Proc) {
			m.swapToDisk(sp, n, j.en, j.page, j.start)
			j.en = nil
			n.swapJobs = append(n.swapJobs, j)
		}
	}
	return j
}

// shootdown models the paper's TLB-shootdown: the initiating processor
// runs the downgrade (ShootLat) and every other processor takes an
// interrupt (InterruptLat) and deletes its translation. Costs are charged
// to each CPU at its next operation.
func (m *Machine) shootdown(initiator *Node, page PageID) {
	initiator.TLB.Invalidate(page)
	initiator.pendingIntr += m.Cfg.TLBShootLat
	for _, other := range m.Nodes {
		if other == initiator {
			continue
		}
		other.TLB.Invalidate(page)
		other.pendingIntr += m.Cfg.InterruptLat
	}
}

// invalidateCaches drops every node's cached blocks and the directory
// state for a page that left memory (cached data must not outlive its
// page frame; the TLB shootdown's interrupts carry the cost).
func (m *Machine) invalidateCaches(page PageID) {
	for _, n := range m.Nodes {
		n.CC.DropPage(page)
	}
	m.Dir.DropPage(page)
}

// swapToDisk runs the standard machine's swap-out protocol: stream the
// page over the mesh to the disk controller; on NACK wait for the OK and
// resend. The frame is only reusable when the final ACK arrives.
func (m *Machine) swapToDisk(p *sim.Proc, n *Node, en *vm.Entry, page PageID, start sim.Time) {
	defer n.swapSem.Release()
	m.swapViaMesh(p, n, en, page, start)
}

// swapViaMesh finishes a swap-out over the standard mesh path: the
// Standard machine's only path, and the NWCache machine's fallback when
// an injected ring outage takes the node's transmitter down.
func (m *Machine) swapViaMesh(p *sim.Proc, n *Node, en *vm.Entry, page PageID, start sim.Time) {
	m.sendPageToDisk(p, n, page)
	n.Pool.ReleaseFrame()
	dur := p.Now() - start
	n.SwapTime.Add(float64(dur))
	m.hSwap.Observe(dur)
	m.Spans.Span(m.swapTrack(n.ID), "swap.disk", start, p.Now(), page)
	en.Lock.Lock(p)
	en.State = vm.Unmapped
	en.Owner = -1
	en.Dirty = false
	en.Arrived.Broadcast()
	en.Lock.Unlock()
}

// sendPageToDisk streams one page into its disk's controller cache —
// memory bus, mesh, I/O bus, the ACK/NACK/OK flow-control protocol —
// and returns once the final ACK has crossed back over the mesh.
func (m *Machine) sendPageToDisk(p *sim.Proc, n *Node, page PageID) {
	d, dn := m.DiskFor(page)
	block := m.Layout.BlockFor(page)
	for {
		// Page transfer: memory bus -> mesh -> I/O bus at the disk node.
		stages := append(n.stageBuf[:0], sim.Stage{
			Res: n.MemBus, Occupy: m.Cfg.PageMemBusTime(), Forward: m.Cfg.HopLatency,
		})
		stages = m.Mesh.AppendPathStages(stages, n.ID, dn, m.Cfg.PageSize)
		stages = append(stages, sim.Stage{Res: m.Nodes[dn].IOBus, Occupy: m.Cfg.PageIOBusTime()})
		_, arrive := sim.Pipeline(p.Now(), stages)
		n.stageBuf = stages[:0]
		p.SleepUntil(arrive)
		if d.Write(p, n.ID, page, block) == disk.ACK {
			break
		}
		// NACKed: the controller recorded us; wait for its OK message.
		t0 := p.Now()
		n.waitOK(m.E, p, page)
		m.Spans.Span(m.swapTrack(n.ID), "swap.nack", t0, p.Now(), page)
	}
	// ACK message back across the mesh; the frame is reusable on receipt.
	ackArrive := m.Mesh.Transit(p.Now(), dn, n.ID, m.Cfg.CtrlMsgLen)
	p.SleepUntil(ackArrive)
}

// swapToRing runs the NWCache swap-out: wait for room on this node's cache
// channel, stream the page onto the fiber through the local buses, and
// reuse the frame immediately. A notice message tells the responsible I/O
// node's NWCache interface to eventually drain the page to disk.
func (m *Machine) swapToRing(p *sim.Proc, n *Node, en *vm.Entry, page PageID, start sim.Time) {
	defer n.swapSem.Release()
	// Transmitters are serialized per node (ringTx covers all of the
	// node's channels; with the OTDM extension a node owns several, and
	// Insert picks the first with room).
	n.ringTx.Lock(p)
	for {
		if m.flt.RingTxDown(n.ID, p.Now()) {
			// Injected whole-channel outage: the transmitter is dark, so
			// this swap-out falls back to the standard mesh path.
			n.ringTx.Unlock()
			m.flt.NoteOutageFallback()
			m.swapViaMesh(p, n, en, page, start)
			return
		}
		if m.Ring.HasRoomFor(n.ID) {
			break
		}
		n.chanRoom.Wait(p)
	}
	stages := append(n.stageBuf[:0],
		sim.Stage{Res: n.MemBus, Occupy: m.Cfg.PageMemBusTime(), Forward: m.Cfg.HopLatency},
		sim.Stage{Res: n.IOBus, Occupy: m.Cfg.PageIOBusTime()},
	)
	_, arrive := sim.Pipeline(p.Now(), stages)
	n.stageBuf = stages[:0]
	p.SleepUntil(arrive)
	p.Sleep(m.Cfg.PageRingTime()) // modulation onto the writable channel
	entry := m.Ring.Insert(n.ID, page)
	n.ringTx.Unlock()
	m.flt.NoteRingInsert(p.Now())
	m.Spans.Instant(m.swapTrack(n.ID), "ring.insert", p.Now(), page)
	if m.conservative() {
		m.swapRingConservative(p, n, en, entry, page, start)
		return
	}
	// The frame is reusable right away — the page now lives on the ring.
	n.Pool.ReleaseFrame()
	dur := p.Now() - start
	n.SwapTime.Add(float64(dur))
	m.hSwap.Observe(dur)
	m.Spans.Span(m.swapTrack(n.ID), "swap.ring", start, p.Now(), page)
	en.Lock.Lock(p)
	en.State = vm.OnRing
	en.RingEntry = entry
	en.Owner = -1
	en.LastSwapper = n.ID
	en.Dirty = true // the disk has not seen this data yet
	en.Arrived.Broadcast()
	en.Lock.Unlock()
	// notice to the I/O node responsible for the page.
	_, dn := m.DiskFor(page)
	noticeArrive := m.Mesh.Transit(p.Now(), n.ID, dn, m.Cfg.CtrlMsgLen)
	g := m.takeMsg()
	g.kind, g.to, g.en = msgNotify, dn, entry
	m.E.At(noticeArrive, g.run)
}

// swapRingConservative finishes a ring swap-out under the conservative
// recovery policy: the page table sees the page OnRing (victim reads and
// drains proceed as usual), but the frame is held until the entry leaves
// the ring. If an injected I/O-node crash voids the entry first, the
// page is resent to disk from the still-held frame — the policy's whole
// point: slower frame reclamation, zero data loss.
func (m *Machine) swapRingConservative(p *sim.Proc, n *Node, en *vm.Entry, entry *optical.Entry, page PageID, start sim.Time) {
	en.Lock.Lock(p)
	en.State = vm.OnRing
	en.RingEntry = entry
	en.Owner = -1
	en.LastSwapper = n.ID
	en.Dirty = true // the disk has not seen this data yet
	en.Arrived.Broadcast()
	en.Lock.Unlock()
	_, dn := m.DiskFor(page)
	noticeArrive := m.Mesh.Transit(p.Now(), n.ID, dn, m.Cfg.CtrlMsgLen)
	g := m.takeMsg()
	g.kind, g.to, g.en = msgNotify, dn, entry
	m.E.At(noticeArrive, g.run)
	// Hold the frame until the page is safely off the ring (ACK received
	// or crash-voided); deliverRingACK and crashIONode broadcast chanRoom.
	for entry.State != optical.Gone {
		n.chanRoom.Wait(p)
	}
	if entry.Voided {
		t0 := p.Now()
		m.sendPageToDisk(p, n, page)
		m.flt.NoteRecovered(p.Now() - t0)
		en.Lock.Lock(p)
		if en.State == vm.OnRing && en.RingEntry == entry {
			en.State = vm.Unmapped
			en.Owner = -1
			en.RingEntry = nil
			en.Dirty = false
			en.Arrived.Broadcast()
		}
		en.Lock.Unlock()
	}
	n.Pool.ReleaseFrame()
	dur := p.Now() - start
	n.SwapTime.Add(float64(dur))
	m.hSwap.Observe(dur)
	m.Spans.Span(m.swapTrack(n.ID), "swap.ring", start, p.Now(), page)
}
