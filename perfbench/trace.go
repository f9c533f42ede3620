package main

import (
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enclaves/internal/checker"
	"enclaves/internal/member"
	"enclaves/internal/metrics"
	"enclaves/internal/model"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// perLayer is what --trace 1 reports on every workload. A layer a workload
// leaves idle reads 0 there; that contrast is how a change to one layer
// shows it moved only its own layer. BENCHMARK.json lists the same names.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"gen.lag_p99_ms", "ms", "lower", 0},
		{"member.send_us_p50", "us", "lower", 0},
		{"member.send_us_p99", "us", "lower", 0},
		{"member.outq_wait_us_p50", "us", "lower", 0},
		{"member.deliver_us_p50", "us", "lower", 0},
		{"member.join_ms_p50", "ms", "lower", 0},
		{"member.ready_ms_p50", "ms", "lower", 0},
		{"member.rekey_receipts", "count", "lower", 0},
		{"member.rekey_receipt_ratio", "ratio", "lower", 0},
		{"member.resume_ms_p50", "ms", "lower", 0},
		{"member.resume_ms_p99", "ms", "lower", 0},
		{"member.resume_ratio", "ratio", "higher", 0},
		{"member.watchdog_trips", "count", "lower", 0},
		{"member.rejected", "count", "lower", 0},
		{"transport.send_us_p50", "us", "lower", 0},
		{"transport.frames_per_batch", "count", "higher", 0},
		{"transport.in_us_p50", "us", "lower", 0},
		{"transport.out_us_p50", "us", "lower", 0},
		{"transport.daemon_frames_per_write", "count", "higher", 0},
		{"transport.bytes_per_delivery", "B", "lower", 0},
		{"group.relay_us_p50", "us", "lower", 0},
		{"group.relay_us_p99", "us", "lower", 0},
		{"group.rotations", "count", "lower", 0},
		{"group.rotations_per_event", "ratio", "lower", 0},
		{"group.admin_frames_per_rotation", "count", "lower", 0},
		{"group.admin_ack_ratio", "ratio", "higher", 0},
		{"group.retransmits", "count", "lower", 0},
		{"group.evictions", "count", "lower", 0},
		{"group.outbox_overflow", "count", "lower", 0},
		{"group.outbox_depth_max", "count", "lower", 0},
		{"replica.detect_ms", "ms", "lower", 0},
		{"replica.promote_ms", "ms", "lower", 0},
		{"replica.chain_breaks", "count", "lower", 0},
	}
	for _, u := range []struct{ prefix, unit, better string }{
		{"checker.explore_s.", "s", "lower"}, {"checker.states.", "count", "lower"}, {"checker.states_per_s.", "1/s", "higher"},
	} {
		for _, m := range verifyModels {
			d = append(d, metricDef{u.prefix + m, u.unit, u.better, 0})
		}
		if u.prefix == "checker.explore_s." {
			d = append(d, metricDef{"checker.obligations_s", "s", "lower", 0})
		}
	}
	return append(d,
		metricDef{"proc.cpu_s", "s", "lower", 0},
		metricDef{"proc.alloc_bytes_per_delivery", "B", "lower", 0},
		metricDef{"proc.gc_cycles", "count", "lower", 0},
		metricDef{"proc.goroutines_per_session", "count", "lower", 0},
		metricDef{"trace.deliver_p50_ms", "ms", "lower", 0},
		metricDef{"trace.untraced_deliver_p50_ms", "ms", "lower", 0},
		metricDef{"trace.capacity_msgs_s", "msgs/s", "higher", 0},
	)
}()

var verifyModels = []string{"base", "failover_lkh", "intruder", "legacy"}

// sig identifies one multicast on the wire: the head of its ciphertext,
// which the leader relays verbatim, so the sender's, the daemon's and the
// recipients' copies carry the same bytes.
type sig [16]byte

func sigOf(payload []byte) sig {
	var s sig
	copy(s[:], payload)
	return s
}

// tracer times calls into each layer from outside it: it wraps every
// member's transport.Conn and every socket the daemon accepts, and records
// spans only while on.
type tracer struct {
	on atomic.Bool

	mu    sync.Mutex
	conns map[*member.Member]*tconn
	// Spans, in microseconds unless named _ms.
	send, outq, deliver, tsend, tin, tout, relay dist
	joinMs, readyMs, resumeMs                    dist
	batches, batchFrames                         int64
	writes, writeFrames, wireBytes               int64
	sentAt, inAt                                 map[sig]time.Time
	outAt                                        map[sig][]time.Time
	dialAt                                       map[int]time.Duration
	upAt                                         time.Duration
	detect, promote                              dist
	receipts                                     atomic.Int64

	// Window bookkeeping.
	snap0      map[string]any
	mem0       runtime.MemStats
	cpu0       time.Duration
	depthMax   atomic.Int64
	stopSample chan struct{}
	sampled    sync.WaitGroup
	window     phaseResult
	sessions   int
	rotations  float64 // leader epoch advances in the window
	events     float64 // membership events in the window
	expected   float64 // sum over rotations of members present
	untraced   float64 // deliver p50 of the untraced phase
}

func newTracer() *tracer {
	metrics.Enable()
	return &tracer{
		conns:  make(map[*member.Member]*tconn),
		sentAt: make(map[sig]time.Time),
		inAt:   make(map[sig]time.Time),
		outAt:  make(map[sig][]time.Time),
		dialAt: make(map[int]time.Duration),
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tconn is the member side's traced transport.Conn.
type tconn struct {
	transport.Conn
	t *tracer

	mu      sync.Mutex
	sendRet []time.Time // SendData returns not yet handed to SendBatch
	recvAt  []time.Time // AppData Recv returns not yet surfaced by Next
}

func (c *tconn) SendBatch(batch []transport.Outgoing) error {
	t0 := time.Now()
	err := c.Conn.SendBatch(batch)
	t1 := time.Now()
	if !c.t.on.Load() {
		return err
	}
	var waits []float64
	var sigs []sig
	c.mu.Lock()
	for _, o := range batch {
		env := o.Envelope()
		if env.Type != wire.TypeAppData {
			continue
		}
		sigs = append(sigs, sigOf(env.Payload))
		if len(c.sendRet) > 0 {
			waits = append(waits, us(t0.Sub(c.sendRet[0])))
			c.sendRet = c.sendRet[1:]
		}
	}
	c.mu.Unlock()
	t := c.t
	t.mu.Lock()
	t.tsend.add(us(t1.Sub(t0)))
	t.batches++
	t.batchFrames += int64(len(batch))
	for _, w := range waits {
		t.outq.add(w)
	}
	for _, s := range sigs {
		t.sentAt[s] = t1
	}
	t.mu.Unlock()
	return err
}

func (c *tconn) Recv() (wire.Envelope, error) {
	env, err := c.Conn.Recv()
	if err != nil || env.Type != wire.TypeAppData || !c.t.on.Load() {
		return env, err
	}
	now := time.Now()
	c.mu.Lock()
	c.recvAt = append(c.recvAt, now)
	c.mu.Unlock()
	t := c.t
	s := sigOf(env.Payload)
	t.mu.Lock()
	if ws := t.outAt[s]; len(ws) > 0 {
		t.tout.add(us(now.Sub(ws[0])))
		t.outAt[s] = ws[1:]
	}
	t.mu.Unlock()
	return env, err
}

// tnet is the daemon side's traced socket: it parses the byte stream in
// each direction into frames to find where each multicast was read and
// written.
type tnet struct {
	net.Conn
	t       *tracer
	in, out []byte
}

func (c *tnet) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in, _ = c.t.frames(append(c.in, p[:n]...), true)
	}
	return n, err
}

func (c *tnet) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		var frames int64
		c.out, frames = c.t.frames(append(c.out, p[:n]...), false)
		if c.t.on.Load() {
			c.t.mu.Lock()
			c.t.writes++
			c.t.writeFrames += frames
			c.t.wireBytes += int64(n)
			c.t.mu.Unlock()
		}
	}
	return n, err
}

type tlistener struct {
	net.Listener
	t *tracer
}

func (l *tlistener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tnet{Conn: c, t: l.t}, nil
}

// frames consumes every complete frame at the head of buf and returns the
// unconsumed tail and the number of frames consumed. Frames are located with the wire package's own framing:
// a 4-byte length, then a plain or mux body.
func (t *tracer) frames(buf []byte, inbound bool) ([]byte, int64) {
	now := time.Now()
	var count int64
	for len(buf) >= 4 {
		n := int(binary.BigEndian.Uint32(buf))
		if len(buf) < 4+n {
			break
		}
		body := buf[4 : 4+n]
		buf = buf[4+n:]
		count++
		var env wire.Envelope
		if wire.IsMuxBody(body) {
			f, err := wire.DecodeMux(body)
			if err != nil || f.Flag != wire.MuxData {
				continue
			}
			env = f.Env
		} else if e, err := wire.Decode(body); err == nil {
			env = e
		}
		if env.Type != wire.TypeAppData || !t.on.Load() {
			continue
		}
		s := sigOf(env.Payload)
		t.mu.Lock()
		if inbound {
			if at, ok := t.sentAt[s]; ok {
				t.tin.add(us(now.Sub(at)))
				delete(t.sentAt, s)
			}
			t.inAt[s] = now
		} else {
			if at, ok := t.inAt[s]; ok {
				t.relay.add(us(now.Sub(at)))
			}
			t.outAt[s] = append(t.outAt[s], now)
		}
		t.mu.Unlock()
	}
	return append(buf[:0:0], buf...), count
}

func (t *tracer) wrapListener(nl net.Listener) net.Listener {
	if t == nil {
		return nl
	}
	return &tlistener{Listener: nl, t: t}
}

func (t *tracer) wrapConn(c transport.Conn) transport.Conn {
	if t == nil {
		return c
	}
	return &tconn{Conn: c, t: t}
}

func (t *tracer) bindMember(c transport.Conn, m *member.Member) {
	if t == nil {
		return
	}
	if tc, ok := c.(*tconn); ok {
		t.mu.Lock()
		t.conns[m] = tc
		t.mu.Unlock()
	}
}

func (t *tracer) joined(join, ready time.Duration) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.joinMs.addDur(join)
	t.readyMs.addDur(ready)
	t.mu.Unlock()
}

// sendDone records one SendData call that started at t0.
func (t *tracer) sendDone(m *member.Member, t0 time.Time, err error) {
	if t == nil || !t.on.Load() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.send.add(us(now.Sub(t0)))
	c := t.conns[m]
	t.mu.Unlock()
	if c != nil && err == nil {
		c.mu.Lock()
		c.sendRet = append(c.sendRet, now)
		c.mu.Unlock()
	}
}

func (t *tracer) delivered(s *slot, ev member.Event) {
	if t == nil || !t.on.Load() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	c := t.conns[s.m]
	t.mu.Unlock()
	if c == nil {
		return
	}
	c.mu.Lock()
	var at time.Time
	if len(c.recvAt) > 0 {
		at = c.recvAt[0]
		c.recvAt = c.recvAt[1:]
	}
	c.mu.Unlock()
	if !at.IsZero() {
		t.mu.Lock()
		t.deliver.add(us(now.Sub(at)))
		t.mu.Unlock()
	}
}

func (t *tracer) rekeyReceipt() {
	if t != nil && t.on.Load() {
		t.receipts.Add(1)
	}
}

// dialed and resumed time a failover member from its first dial to the
// promoted node until its EventJoined.
func (t *tracer) dialed(i int, at time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if _, ok := t.dialAt[i]; !ok && t.upAt > 0 && at >= t.upAt {
		t.dialAt[i] = at
	}
	t.mu.Unlock()
}

func (t *tracer) resumed(i int, at time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if d, ok := t.dialAt[i]; ok {
		t.resumeMs.addDur(at - d)
		delete(t.dialAt, i)
	}
	t.mu.Unlock()
}

func (t *tracer) failover(kill, dead, up time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.detect.addDur(dead - kill)
	t.promote.addDur(up - dead)
	t.upAt = up
	t.dialAt = make(map[int]time.Duration)
	t.mu.Unlock()
}

// membership records churn's rotation ledger: leader epoch advances, the
// membership events that caused them, and the EventRekey receipts they
// should have produced.
func (t *tracer) membership(rotations, events, expected float64) {
	if t != nil {
		t.rotations, t.events, t.expected = rotations, events, expected
	}
}

// start opens the traced window over sessions member sessions.
func (t *tracer) start(sessions int) {
	if t == nil {
		return
	}
	t.sessions = sessions
	t.snap0 = metrics.Default.Snapshot()
	runtime.ReadMemStats(&t.mem0)
	t.cpu0 = cpuTime()
	t.stopSample = make(chan struct{})
	t.sampled.Add(1)
	go func() {
		defer t.sampled.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stopSample:
				return
			case <-tick.C:
				if d, ok := metrics.Default.Snapshot()["group_outbox_depth"].(int64); ok && d > t.depthMax.Load() {
					t.depthMax.Store(d)
				}
			}
		}
	}()
	t.on.Store(true)
}

// stop closes the traced window; p is the workload's view of it.
func (t *tracer) stop(p phaseResult) {
	if t == nil {
		return
	}
	t.on.Store(false)
	close(t.stopSample)
	t.sampled.Wait()
	t.window = p
}

func counterDelta(a, b map[string]any, name string) float64 {
	x, _ := a[name].(uint64)
	y, _ := b[name].(uint64)
	return float64(y - x)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish turns the window's spans and counter deltas into the per-layer
// metrics. Untraced runs have no tracer and report nothing here.
func (t *tracer) finish(r *run) error {
	if t == nil {
		return nil
	}
	snap := metrics.Default.Snapshot()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	d := func(name string) float64 { return counterDelta(t.snap0, snap, name) }
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.window
	deliveries := float64(p.lat.n())
	set := func(name string, v float64) {
		for _, m := range perLayer {
			if m.Name == name {
				r.set(name, v, m.Unit)
				return
			}
		}
		panic("unregistered per-layer metric " + name)
	}
	if p.lag != nil {
		set("gen.lag_p99_ms", p.lag.quantile(0.99))
	}
	set("member.send_us_p50", t.send.quantile(0.5))
	set("member.send_us_p99", t.send.quantile(0.99))
	set("member.outq_wait_us_p50", t.outq.quantile(0.5))
	set("member.deliver_us_p50", t.deliver.quantile(0.5))
	set("member.join_ms_p50", t.joinMs.quantile(0.5))
	set("member.ready_ms_p50", t.readyMs.quantile(0.5))
	set("member.rekey_receipts", float64(t.receipts.Load()))
	set("member.rekey_receipt_ratio", ratio(float64(t.receipts.Load()), t.expected))
	set("member.resume_ms_p50", t.resumeMs.quantile(0.5))
	set("member.resume_ms_p99", t.resumeMs.quantile(0.99))
	resumed, fellBack := d("member_resumed_total"), d("member_resume_fallback_total")
	set("member.resume_ratio", ratio(resumed, resumed+fellBack))
	set("member.watchdog_trips", d("member_watchdog_trips_total"))
	set("member.rejected", d("member_rejected_total"))
	set("transport.send_us_p50", t.tsend.quantile(0.5))
	set("transport.frames_per_batch", ratio(float64(t.batchFrames), float64(t.batches)))
	set("transport.in_us_p50", t.tin.quantile(0.5))
	set("transport.out_us_p50", t.tout.quantile(0.5))
	set("transport.daemon_frames_per_write", ratio(float64(t.writeFrames), float64(t.writes)))
	set("transport.bytes_per_delivery", ratio(float64(t.wireBytes), deliveries))
	set("group.relay_us_p50", t.relay.quantile(0.5))
	set("group.relay_us_p99", t.relay.quantile(0.99))
	set("group.rotations", t.rotations)
	set("group.rotations_per_event", ratio(t.rotations, t.events))
	set("group.admin_frames_per_rotation", ratio(d("group_admin_sent_total"), t.rotations))
	set("group.admin_ack_ratio", ratio(d("group_admin_acked_total"), d("group_admin_sent_total")))
	set("group.retransmits", d("group_retransmits_total"))
	set("group.evictions", d("group_evictions_total"))
	set("group.outbox_overflow", d("group_outbox_overflow_total"))
	set("group.outbox_depth_max", float64(t.depthMax.Load()))
	set("replica.detect_ms", t.detect.quantile(0.5))
	set("replica.promote_ms", t.promote.quantile(0.5))
	set("replica.chain_breaks", d("replica_chain_breaks_total"))
	set("proc.cpu_s", (cpuTime() - t.cpu0).Seconds())
	set("proc.alloc_bytes_per_delivery", ratio(float64(mem.TotalAlloc-t.mem0.TotalAlloc), deliveries))
	set("proc.gc_cycles", float64(mem.NumGC-t.mem0.NumGC))
	set("proc.goroutines_per_session", ratio(float64(runtime.NumGoroutine()), float64(t.sessions)))
	if deliveries > 0 {
		set("trace.deliver_p50_ms", p.lat.quantile(0.5))
		set("trace.untraced_deliver_p50_ms", t.untraced)
	}
	if r.o.workload == "multicast" {
		stages := []struct {
			name string
			v    float64
		}{
			{"gen lag", p.lag.quantile(0.5) * 1000},
			{"member.send", t.send.quantile(0.5)},
			{"member.outq_wait", t.outq.quantile(0.5)},
			{"transport.send", t.tsend.quantile(0.5)},
			{"transport.in", t.tin.quantile(0.5)},
			{"group.relay", t.relay.quantile(0.5)},
			{"transport.out", t.tout.quantile(0.5)},
			{"member.deliver", t.deliver.quantile(0.5)},
		}
		sum := 0.0
		for _, s := range stages {
			r.say("stage budget: %-17s p50 %9.1f us", s.name, s.v)
			sum += s.v
		}
		total := p.lat.quantile(0.5) * 1000
		r.say("stage budget: sum %.1f us vs traced deliver_p50 %.1f us, residual %.1f us", sum, total, total-sum)
	}
	return nil
}

// verify is the traced verify run: the explorations RunOpts overlaps are
// run one by one, each timed, and their obligations checked.
func (t *tracer) verify(r *run, workers int) error {
	t.start(0)
	var obligations time.Duration
	var all []checker.Obligation
	explore := func(name string, cfg model.Config, edges bool) *checker.Exploration {
		t0 := time.Now()
		ex := checker.ExploreOpts(cfg, checker.Options{Workers: workers, Edges: edges})
		secs := time.Since(t0).Seconds()
		r.set("checker.explore_s."+name, secs, "s")
		r.set("checker.states."+name, float64(len(ex.Nodes)), "count")
		r.set("checker.states_per_s."+name, float64(len(ex.Nodes))/secs, "1/s")
		t1 := time.Now()
		all = append(all, checker.AllInvariants(ex)...)
		if edges {
			all = append(all, checker.CheckDiagram(ex).Obligations...)
		}
		obligations += time.Since(t1)
		return ex
	}
	explore("base", vfConfig, true)
	fl := vfConfig
	fl.Failover, fl.LKH = true, true
	explore("failover_lkh", fl, false)
	in := vfConfig
	in.IntruderSessions = true
	explore("intruder", in, false)
	t0 := time.Now()
	lex := checker.ExploreLegacy(vfLegacy)
	secs := time.Since(t0).Seconds()
	r.set("checker.explore_s.legacy", secs, "s")
	r.set("checker.states.legacy", float64(len(lex.Nodes)), "count")
	r.set("checker.states_per_s.legacy", float64(len(lex.Nodes))/secs, "1/s")
	t1 := time.Now()
	legacy := checker.LegacyObligations(lex)
	obligations += time.Since(t1)
	r.set("checker.obligations_s", obligations.Seconds(), "s")
	checkReport(r, &checker.Report{Improved: all, Legacy: legacy})
	t.stop(phaseResult{lat: &dist{}})
	return t.finish(r)
}
