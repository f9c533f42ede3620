package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The churn workload: 16 groups of 64 member slots. Slots 0..31 of every
// group stay joined and multicast 128 B at chSendHz each (seeded Poisson);
// slots 32..63 leave and rejoin on seeded Poisson events. Every event is a
// flat O(n) key rotation plus a membership broadcast, so the handshake,
// the admin/ack pipeline and rekeying do the work.
const (
	chGroups  = 16
	chMembers = 64
	chStable  = 32
	// chSendHz is each stable slot's background multicast rate. At 1 Hz
	// from every slot the 63-way fan-out alone saturates 2 vCPUs.
	chSendHz = 0.25
	// chCycleRate is the aggregate rate of leave+rejoin cycles (per
	// second), one that the commit defining the benchmark keeps up with on
	// 2 vCPUs.
	chCycleRate = 24.0
	// chGap spaces one group's rotations: a member accepts multicasts
	// sealed under its current or previous epoch only, so two rotations
	// while a message is in flight would drop it.
	chGap = 100 * time.Millisecond
)

// leaveRec is one leave: which group, the newest epoch the leaver could
// hold, and when it was due.
type leaveRec struct {
	group int
	epoch uint64
	sched time.Duration
}

func runChurn(r *run) error {
	w, setups, err := setUp(r, chGroups, chMembers)
	if err != nil {
		return err
	}
	defer w.h.close()
	r.say("topology: self-hosted directory, loopback TCP, %d mux connections, %d groups x %d slots (%d stable senders at %g Hz), %g leave+rejoin cycles/s, gap %v, setups %v s",
		len(w.h.muxes), chGroups, chMembers, chStable, chSendHz, chCycleRate, chGap, setups)

	// The schedule: per group, background sends from the stable slots and
	// spaced leave events on the others, each followed chGap later by the
	// same slot's rejoin.
	rng := rand.New(rand.NewSource(r.o.seed*104729 + 1))
	gens := r.o.conns
	schedules := make([][]arrival, gens)
	for g := 0; g < chGroups; g++ {
		var stable, churny []int
		for m := 0; m < chMembers; m++ {
			if m < chStable {
				stable = append(stable, g*chMembers+m)
			} else {
				churny = append(churny, g*chMembers+m)
			}
		}
		k := g % gens
		schedules[k] = append(schedules[k], poisson(rng, chSendHz*chStable, r.o.window, stable, opSend)...)
		cycles := int(chCycleRate / chGroups * r.o.window.Seconds())
		for _, l := range spacedN(rng, cycles, r.o.window-chGap, 2*chGap, churny, opLeave) {
			schedules[k] = append(schedules[k], l, arrival{At: l.At + chGap, Slot: l.Slot, Kind: opJoin})
		}
	}
	for k := range schedules {
		schedules[k] = byTime(schedules[k])
	}

	var (
		sent, sendFail, joins, joinFail, nLeaves, leaveFail atomic.Int64
		mu                                                  sync.Mutex
		joinLat                                             dist
		leaveRecs                                           []leaveRec
		ops                                                 sync.WaitGroup
		slotMu                                              = make([]sync.Mutex, len(w.slots))
	)
	epoch0 := make([]uint64, chGroups)
	for g := range epoch0 {
		epoch0[g] = w.h.epoch(groupName(g))
	}
	runtime.GC() // the set-ups' garbage is not the window's
	r.tr.start(len(w.slots))
	u0 := usageNow()
	t0 := w.now() + 10*time.Millisecond
	lag := w.drive(t0, schedules, func(a arrival, due time.Duration, buf []byte) {
		s := w.slots[a.Slot]
		if a.Kind == opSend {
			if err := w.send(s, buf, 0, due); err != nil {
				sendFail.Add(1)
				r.v.fail("%s/%s send: %v", s.gid, s.user, err)
				return
			}
			sent.Add(1)
			return
		}
		leave := a.Kind == opLeave
		ops.Add(1)
		go func() {
			defer ops.Done()
			slotMu[a.Slot].Lock()
			defer slotMu[a.Slot].Unlock()
			if !leave {
				if err := w.join(s, false); err != nil {
					joinFail.Add(1)
					r.v.fail("rejoin %s/%s: %v", s.gid, s.user, err)
					return
				}
				joins.Add(1)
				mu.Lock()
				joinLat.addDur(w.now() - due)
				mu.Unlock()
				return
			}
			e := w.h.epoch(s.gid)
			if me := s.m.Epoch(); me > e {
				e = me
			}
			if err := s.m.Leave(); err != nil {
				leaveFail.Add(1)
				r.v.fail("leave %s/%s: %v", s.gid, s.user, err)
				return
			}
			<-s.recvDone
			nLeaves.Add(1)
			mu.Lock()
			leaveRecs = append(leaveRecs, leaveRec{group: a.Slot / chMembers, epoch: e, sched: due})
			mu.Unlock()
		}()
	})
	ops.Wait()
	window := w.now() - t0
	used := usageNow().since(u0)
	rss := rssMiB()

	// Every stable member must end up with every stable sender's last
	// message, and past every leaver's epoch.
	complete := func(final bool) bool {
		for g := 0; g < chGroups; g++ {
			for m := 0; m < chStable; m++ {
				s := w.slots[g*chMembers+m]
				s.mu.Lock()
				s.chk.rejected = s.m.Rejected()
				n := len(s.chk.missing(stableSent(w, g, s.idx), final))
				s.mu.Unlock()
				if n > 0 {
					return false
				}
			}
		}
		return true
	}
	// Wait for what is in flight; then excuse drops the receivers rejected.
	if !waitFor(2*deliveryBudget, func() bool { return complete(false) }) && !complete(true) {
		for g := 0; g < chGroups && r.v.count() == 0; g++ {
			for m := 0; m < chStable; m++ {
				s := w.slots[g*chMembers+m]
				s.mu.Lock()
				s.chk.rejected = s.m.Rejected()
				miss := s.chk.missing(stableSent(w, g, s.idx), true)
				s.mu.Unlock()
				if len(miss) > 0 {
					r.v.fail("%s/%s missed messages: %v", s.gid, s.user, miss)
					break
				}
			}
		}
	}
	rekey, memberRekey := rekeyWindows(r, w, leaveRecs)
	deliver := w.collect(0)
	events := joins.Load() + nLeaves.Load()
	rotations, expected := uint64(0), 0.0
	for g := range epoch0 {
		n := w.h.epoch(groupName(g)) - epoch0[g]
		rotations += n
		if ld, err := w.h.dir.Lookup(groupName(g)); err == nil {
			expected += float64(n) * float64(len(ld.Members()))
		}
	}
	r.tr.stop(phaseResult{sent: sent.Load(), used: used, lat: deliver, lag: lag})
	r.tr.membership(float64(rotations), float64(events), expected)

	r.attempted += sent.Load() + sendFail.Load() + events + joinFail.Load() + leaveFail.Load()
	r.failed += sendFail.Load() + joinFail.Load() + leaveFail.Load()
	r.sayDist("deliver", "ms", deliver)
	r.sayDist("join", "ms", &joinLat)
	r.sayDist("rekey", "ms", rekey)
	r.sayDist("member_rekey", "ms", memberRekey)
	r.sayDist("gen.lag", "ms", lag)
	// A multicast a stable receiver refused because it was sealed under an
	// epoch the receiver did not hold yet is a loss of the protocol's, not
	// a failed call: the send succeeded and the check above proved every
	// gap is one the receivers refused. It is reported here and, traced,
	// as member.rejected, like failover's sends refused in the gap.
	r.say("lost = %d sends some stable receiver refused, sealed under an epoch it did not hold (lost_ratio = %.6g of %d sends; not counted as failed)",
		w.lostSends(), ratio(float64(w.lostSends()), float64(sent.Load())), sent.Load())
	r.say("events %d (%d joins, %d leaves) in %v, leader rotations %d (%.3f per event), sends %d, cpu %v (%.4g us per event), rss_mb = %.4g MiB",
		events, joins.Load(), nLeaves.Load(), window, rotations, float64(rotations)/float64(events), sent.Load(), used.cpu, float64(used.cpu.Microseconds())/float64(events), rss)
	r.set("latency_p50_ms", joinLat.quantile(0.5), "ms")
	r.setPerOp(used, float64(events))
	r.set("rss_mb", rss, "MiB")
	return r.tr.finish(r)
}

// stableSent is the final sequence number of every other stable slot of
// group g.
func stableSent(w *world, g, self int) map[uint32]uint64 {
	out := make(map[uint32]uint64)
	for m := 0; m < chStable; m++ {
		i := g*chMembers + m
		if i != self {
			out[uint32(i)] = w.slots[i].seq
		}
	}
	return out
}

// rekeyWindows measures, for every leave, the time from its scheduled
// instant until every stable member of the group held an epoch newer than
// the newest one the leaver could have held: the forward-secrecy exposure
// window. It also returns each stable member's own time to that epoch, one
// sample per (leave, member). A stable member that never gets there is a
// violation.
func rekeyWindows(r *run, w *world, leaves []leaveRec) (window, perMember *dist) {
	window, perMember = &dist{}, &dist{}
	for _, l := range leaves {
		var worst time.Duration
		for m := 0; m < chStable; m++ {
			s := w.slots[l.group*chMembers+m]
			s.mu.Lock()
			i := sort.Search(len(s.rekeys), func(i int) bool { return s.rekeys[i].epoch > l.epoch })
			var at time.Duration
			ok := i < len(s.rekeys)
			if ok {
				at = s.rekeys[i].at
			}
			s.mu.Unlock()
			if !ok {
				r.v.fail("%s/%s never rekeyed past epoch %d after a leave", s.gid, s.user, l.epoch)
				return window, perMember
			}
			perMember.addDur(at - l.sched)
			if at-l.sched > worst {
				worst = at - l.sched
			}
		}
		window.addDur(worst)
	}
	return window, perMember
}
