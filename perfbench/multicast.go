package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enclaves/internal/member"
)

// The multicast workload: 256 groups of 4 members with static membership,
// seeded Poisson sends of 128 B. Groups of 4 take the leader's sequential
// fan-out, so rekey, admin and the fan-out pool stay idle and the data
// plane does the work.
const (
	mcGroups  = 256
	mcMembers = 4
	// mcRate is the fixed-rate phase's aggregate offered load, about half
	// the capacity_msgs_s (1,100 to 1,700 msgs/s) measured on 2 vCPUs at
	// the commit that defined the benchmark. It is a constant so that every
	// commit is measured at the same load.
	mcRate = 700.0

	capStep     = 1500 * time.Millisecond
	capP99Limit = 10 * time.Millisecond
	capGrow     = 1.5
	capRes      = 0.05
	capMaxSteps = 6
	// setupReps is how often the socket workloads set up per run: a
	// 1,024-session set-up costs several seconds on 2 vCPUs, most of it
	// PBKDF2 key derivation, so three keep every run within its time budget.
	setupReps = 3
)

// world is a set of joined member slots with a clock and a correctness
// verdict; multicast and churn build one each.
type world struct {
	r     *run
	h     *host
	base  time.Time
	slots []*slot
	// delivered counts deliveries per measurement phase.
	delivered [256]atomic.Int64

	lostMu sync.Mutex
	lost   map[[2]uint64]bool // (sender, seq) some receiver rejected
}

// lostSend records a multicast a receiver rejected; see seqCheck.
func (w *world) lostSend(sender uint32, seq uint64) {
	w.lostMu.Lock()
	w.lost[[2]uint64{uint64(sender), seq}] = true
	w.lostMu.Unlock()
}

// lostSends is how many sends some receiver rejected.
func (w *world) lostSends() int64 {
	w.lostMu.Lock()
	defer w.lostMu.Unlock()
	return int64(len(w.lost))
}

// slot is one member position: the generator that owns it is the only
// writer of seq and the only caller of join/leave on it.
type slot struct {
	idx      int
	gid      string
	user     string
	mux      int
	m        *member.Member
	seq      uint64
	recvDone chan struct{}

	mu      sync.Mutex // guards the receiver state below
	chk     *seqCheck
	ep      epochWatch
	samples []sample
	closed  bool
	// rekeys logs every epoch this slot's sessions were rekeyed to, and
	// when, for churn's rekey window.
	rekeys []epochAt
}

type epochAt struct {
	epoch uint64
	at    time.Duration
}

type sample struct {
	phase uint8
	ms    float64
}

func (w *world) now() time.Duration { return time.Since(w.base) }

// newWorld starts a host and joins groups x members slots, timing the set-up.
func newWorld(r *run, groups, members int) (*world, time.Duration, error) {
	t0 := time.Now()
	h, err := startHost(groups, members, r.o.conns, r.tr)
	if err != nil {
		return nil, 0, err
	}
	w := &world{r: r, h: h, base: time.Now(), lost: make(map[[2]uint64]bool)}
	for g := 0; g < groups; g++ {
		for m := 0; m < members; m++ {
			i := len(w.slots)
			w.slots = append(w.slots, &slot{idx: i, gid: groupName(g), user: userName(m), mux: i % len(h.muxes)})
		}
	}
	err = parallel(len(w.slots), joinsInFlight, func(i int) error { return w.join(w.slots[i], true) })
	if err == nil && !waitFor(joinTimeout, w.converged) {
		err = fmt.Errorf("set-up: members did not converge on their leaders' epochs within %v", joinTimeout)
	}
	if err != nil {
		h.close()
		return nil, 0, err
	}
	return w, time.Since(t0), nil
}

// converged reports whether every member holds its leader's current epoch:
// the join storm's rotations have all been delivered.
func (w *world) converged() bool {
	for _, s := range w.slots {
		if s.m.Epoch() != w.h.epoch(s.gid) {
			return false
		}
	}
	return true
}

// setUp builds the world setupReps times, keeping the last, and records
// the median set-up time as setup_s.
func setUp(r *run, groups, members int) (*world, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		w, took, err := newWorld(r, groups, members)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if i == setupReps-1 {
			r.set("setup_s", median(setups), "s")
			return w, setups, nil
		}
		w.h.close()
		// The next set-up starts from a quiet process: this world's
		// receivers have exited and its garbage is collected.
		waitFor(drainTimeout, func() bool {
			for _, s := range w.slots {
				select {
				case <-s.recvDone:
				default:
					return false
				}
			}
			return true
		})
		runtime.GC()
	}
}

// join (re)joins a slot and starts its receiver. fromStart says the slot
// was present before any message was sent.
func (w *world) join(s *slot, fromStart bool) error {
	m, err := join(w.h.muxes[s.mux], s.gid, s.user, w.h.keys[s.gid][s.user], w.r.tr)
	if err != nil {
		return err
	}
	chk := newSeqCheck(fromStart, false)
	chk.lost = w.lostSend
	s.mu.Lock()
	s.m, s.closed, s.chk = m, false, chk
	s.mu.Unlock()
	s.recvDone = make(chan struct{})
	go w.receive(s, m, s.recvDone)
	return nil
}

// receive consumes one member session's events until it closes, checking
// every delivery and epoch and recording latency from the scheduled send.
func (w *world) receive(s *slot, m *member.Member, done chan struct{}) {
	defer close(done)
	for {
		ev, err := m.Next()
		if err != nil || ev.Kind == member.EventClosed {
			s.mu.Lock()
			s.closed = true
			s.mu.Unlock()
			return
		}
		switch ev.Kind {
		case member.EventData:
			now := w.now()
			h, ok := decodeMsg(ev.Data)
			if !ok {
				w.r.v.fail("%s/%s: corrupt payload from %s", s.gid, s.user, ev.From)
				continue
			}
			s.mu.Lock()
			s.chk.rejected = m.Rejected()
			problem := s.chk.observe(h.Sender, h.Seq)
			s.samples = append(s.samples, sample{h.Phase, float64(now-h.Sched) / float64(time.Millisecond)})
			s.mu.Unlock()
			if problem != "" {
				w.r.v.fail("%s/%s: %s (member rejected %d frames)", s.gid, s.user, problem, m.Rejected())
			}
			w.delivered[h.Phase].Add(1)
			w.r.tr.delivered(s, ev)
		case member.EventRekey:
			now := w.now()
			s.mu.Lock()
			problem := s.ep.observe(ev.Epoch)
			s.rekeys = append(s.rekeys, epochAt{ev.Epoch, now})
			s.mu.Unlock()
			w.r.v.check(s.gid+"/"+s.user, problem)
			w.r.tr.rekeyReceipt()
		}
	}
}

// send multicasts the slot's next message for phase, due at sched.
func (w *world) send(s *slot, buf []byte, phase uint8, sched time.Duration) error {
	s.seq++
	encodeMsg(buf, msgHdr{Sender: uint32(s.idx), Seq: s.seq, Sched: sched, Phase: phase})
	t0 := time.Now()
	err := s.m.SendData(buf)
	w.r.tr.sendDone(s.m, t0, err)
	if err != nil {
		s.seq--
	}
	return err
}

// drive walks schedules (one per generator) from phase start t0, calling
// op for each arrival when it falls due. It returns the generators' lag
// behind schedule.
func (w *world) drive(t0 time.Duration, schedules [][]arrival, op func(a arrival, due time.Duration, buf []byte)) *dist {
	lags := make([]dist, len(schedules))
	var wg sync.WaitGroup
	for k := range schedules {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			buf := make([]byte, payloadSize)
			for _, a := range schedules[k] {
				due := t0 + a.At
				if d := due - w.now(); d > 0 {
					time.Sleep(d)
				}
				lags[k].addDur(w.now() - due)
				op(a, due, buf)
			}
		}(k)
	}
	wg.Wait()
	var all dist
	for k := range lags {
		all.merge(&lags[k])
	}
	return &all
}

// collect takes every latency sample of phase out of the receivers.
func (w *world) collect(phase uint8) *dist {
	var d dist
	for _, s := range w.slots {
		s.mu.Lock()
		kept := s.samples[:0]
		for _, x := range s.samples {
			if x.phase == phase {
				d.add(x.ms)
			} else {
				kept = append(kept, x)
			}
		}
		s.samples = kept
		s.mu.Unlock()
	}
	return &d
}

func (w *world) anyClosed() bool {
	for _, s := range w.slots {
		s.mu.Lock()
		c := s.closed
		s.mu.Unlock()
		if c {
			return true
		}
	}
	return false
}

// phaseResult is one measured phase: sends, delivery latencies, generator
// lag and the process CPU and heap allocation it took.
type phaseResult struct {
	sent, failed int64
	expected     int64
	lat, lag     *dist
	allIn        bool
	used         usage
}

// mcPhase offers rate msgs/s for span as one measurement phase and waits
// until every message is delivered to the other members of its group or
// budget passes after the phase ends.
func (w *world) mcPhase(phase uint8, rate float64, span, budget time.Duration, rngs []*rand.Rand) phaseResult {
	owned := partition(len(w.slots), len(rngs))
	schedules := make([][]arrival, len(rngs))
	for k := range rngs {
		schedules[k] = poisson(rngs[k], rate/float64(len(rngs)), span, owned[k], opSend)
	}
	var res phaseResult
	var sent, failed atomic.Int64
	u0 := usageNow()
	t0 := w.now() + 10*time.Millisecond
	res.lag = w.drive(t0, schedules, func(a arrival, due time.Duration, buf []byte) {
		s := w.slots[a.Slot]
		if err := w.send(s, buf, phase, due); err != nil {
			failed.Add(1)
			return
		}
		sent.Add(1)
	})
	res.sent, res.failed = sent.Load(), failed.Load()
	res.expected = res.sent * (mcMembers - 1)
	end := t0 + span
	res.allIn = waitFor(end+budget-w.now(), func() bool { return w.delivered[phase].Load() >= res.expected })
	res.used = usageNow().since(u0)
	res.lat = w.collect(phase)
	return res
}

func runMulticast(r *run) error {
	w, setups, err := setUp(r, mcGroups, mcMembers)
	if err != nil {
		return err
	}
	defer w.h.close()
	r.say("topology: self-hosted directory, loopback TCP, %d mux connections, %d groups x %d members, payload %d B, setups %v s",
		len(w.h.muxes), mcGroups, mcMembers, payloadSize, setups)

	gens := r.o.conns
	rngs := make([]*rand.Rand, gens)
	for k := range rngs {
		rngs[k] = rand.New(rand.NewSource(r.o.seed*7919 + int64(k)))
	}

	phase := uint8(0)
	if r.tr != nil {
		// The same phase untraced first, for the tracing overhead.
		phase++
		r.tr.untraced = w.mcPhase(phase, mcRate, r.o.window, drainTimeout, rngs).lat.quantile(0.5)
	}
	runtime.GC() // the set-ups' garbage is not the window's
	r.tr.start(len(w.slots))
	fixed := w.mcPhase(0, mcRate, r.o.window, drainTimeout, rngs)
	rss := rssMiB()
	r.tr.stop(fixed)
	if err := r.tr.finish(r); err != nil {
		return err
	}
	r.attempted += fixed.sent + fixed.failed
	r.failed += fixed.failed + w.lostSends()
	if !fixed.allIn {
		r.v.fail("fixed-rate phase: %d of %d deliveries arrived", w.delivered[0].Load(), fixed.expected)
	}
	if w.anyClosed() {
		r.v.fail("fixed-rate phase: a member session closed")
	}
	for _, s := range w.slots {
		s.chk.rejected = s.m.Rejected()
		if miss := s.chk.missing(sentBy(w, s), true); len(miss) > 0 {
			r.v.fail("%s/%s missed messages: %v", s.gid, s.user, miss)
			break
		}
	}
	delivered := fixed.lat.n()
	r.sayDist("deliver", "ms", fixed.lat)
	r.sayDist("gen.lag", "ms", fixed.lag)
	r.set("latency_p50_ms", fixed.lat.quantile(0.5), "ms")
	r.setPerOp(fixed.used, float64(delivered))
	r.set("rss_mb", rss, "MiB")
	r.say("fixed rate %.0f msgs/s: sent %d, failed %d, delivered %d, cpu %v, rss %.1f MiB",
		mcRate, fixed.sent, fixed.failed, delivered, fixed.used.cpu, rss)
	r.say("cpu_us_per_delivery = %.4g us (n=%d deliveries), rss_mb = %.4g MiB",
		float64(fixed.used.cpu.Microseconds())/float64(delivered), delivered, rss)

	// Capacity: the highest offered rate whose step keeps p99 within the
	// limit, fails nothing and delivers everything within a second.
	if r.tr != nil {
		r.tr.on.Store(true) // the capacity search runs traced, for the overhead
	}
	capacity, steps := searchCapacity(2*mcRate, capGrow, capRes, capMaxSteps, func(rate float64) bool {
		phase++
		st := w.mcPhase(phase, rate, capStep, deliveryBudget, rngs)
		evicted := w.restore()
		p99 := st.lat.quantile(0.99)
		ok := st.allIn && st.failed == 0 && !evicted && p99 <= float64(capP99Limit)/float64(time.Millisecond)
		r.say("capacity step %.0f msgs/s: p99 %.3f ms (n=%d), failed %d, all delivered %v, evicted %v -> %v",
			rate, p99, st.lat.n(), st.failed, st.allIn, evicted, ok)
		if !st.allIn {
			// Let the backlog drain so it does not load the next step.
			waitFor(drainTimeout, func() bool { return w.delivered[phase].Load() >= st.expected })
		}
		return ok
	})
	r.say("capacity_msgs_s = %.0f msgs/s (n=%d steps of %v, target resolution %.0f%%, p99 limit %v)", capacity, steps, capStep, capRes*100, capP99Limit)
	if r.tr != nil {
		r.tr.on.Store(false)
		r.set("trace.capacity_msgs_s", capacity, "msgs/s")
		r.say("tracing overhead: deliver_p50_ms %.4f traced vs %.4f untraced; capacity_msgs_s %.0f traced (untraced: the --trace 0 run)",
			fixed.lat.quantile(0.5), r.tr.untraced, capacity)
	}
	return nil
}

// sentBy is the final sequence number of every other member of s's group.
func sentBy(w *world, s *slot) map[uint32]uint64 {
	out := make(map[uint32]uint64)
	first := (s.idx / mcMembers) * mcMembers
	for i := first; i < first+mcMembers; i++ {
		if i != s.idx {
			out[uint32(i)] = w.slots[i].seq
		}
	}
	return out
}

// restore rejoins every slot whose session closed (an overload step can
// evict a member), so the next step starts with the full session set. The
// other members of a rejoined slot's group restart their stream checks,
// since the evicted member's queued messages were lost with it.
func (w *world) restore() bool {
	evicted := false
	for _, s := range w.slots {
		s.mu.Lock()
		c := s.closed
		s.mu.Unlock()
		if !c {
			continue
		}
		evicted = true
		if err := w.join(s, false); err != nil {
			w.r.v.fail("restore %s/%s: %v", s.gid, s.user, err)
			continue
		}
		first := (s.idx / mcMembers) * mcMembers
		for i := first; i < first+mcMembers; i++ {
			o := w.slots[i]
			chk := newSeqCheck(false, false)
			chk.lost = w.lostSend
			o.mu.Lock()
			o.chk = chk
			o.mu.Unlock()
		}
	}
	return evicted
}
