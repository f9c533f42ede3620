package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/replica"
	"enclaves/internal/transport"
)

// The failover workload: one group of 256 member.Sessions behind a leader
// with a hot standby. Each run silently kills the current leader foKills
// times by blackholing its sockets; the standby promotes, the members
// resume, and a fresh standby subscribes to the promoted leader before the
// next kill. Members multicast at a low open-loop rate throughout.
const (
	foMembers = 256
	// foKills is even: at the commit that defined the benchmark every
	// second kill's members fall back from resume to a full join.
	foKills  = 12
	foGroup  = "g0" // groupName(0), as deriveKeys names it
	foSendHz = 0.2  // per member
	// The timers: the member-side silence budget, the standby's silence
	// budget and the primary's replication ping. They set most of the
	// failover gap and are fixed. The leader keeps enclaved's 2 s
	// heartbeat: the group's own traffic, which runs from the first join
	// on, keeps every member of a live leader inside its silence budget.
	foSilence        = 400 * time.Millisecond
	foStandbySilence = 250 * time.Millisecond
	foReplPing       = 25 * time.Millisecond
	foBackoff        = 20 * time.Millisecond
	foRecover        = 15 * time.Second // bound on one kill's recovery
	foTrafficSpan    = 3 * time.Minute  // longer than any run
)

// killConn is a daemon-side socket that can be blackholed: once killed it
// swallows everything read and written, like a host that dropped off the
// network without sending a FIN.
type killConn struct {
	net.Conn
	dead *atomic.Bool
}

func (c *killConn) Read(p []byte) (int, error) {
	for {
		n, err := c.Conn.Read(p)
		if !c.dead.Load() || err != nil {
			return n, err
		}
	}
}

func (c *killConn) Write(p []byte) (int, error) {
	if c.dead.Load() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// node is one serving leader: its listener, the client side's multiplexed
// connections to it, and the kill switch.
type node struct {
	leader *group.Leader
	nl     net.Listener
	dead   atomic.Bool
	serve  sync.WaitGroup

	mu    sync.Mutex
	muxes []*transport.Mux
}

func startNode(ld *group.Leader, conns int, tr *tracer) (*node, error) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ld.Close()
		return nil, err
	}
	n := &node{leader: ld, nl: nl, muxes: make([]*transport.Mux, conns)}
	wl := tr.wrapListener(nl)
	n.serve.Add(1)
	go func() {
		defer n.serve.Done()
		cfg := transport.MuxConfig{Accept: func(_ string, c transport.Conn) { _ = ld.ServeConn(c) }}
		for {
			nc, err := wl.Accept()
			if err != nil {
				return
			}
			n.serve.Add(1)
			go func() {
				defer n.serve.Done()
				_ = transport.ServeMuxConn(&killConn{Conn: nc, dead: &n.dead}, cfg)
			}()
		}
	}()
	return n, nil
}

// open opens a member stream on this node's i-th connection, dialing it on
// first use.
func (n *node) open(i int) (transport.Conn, error) {
	if n.dead.Load() {
		return nil, errors.New("leader unreachable")
	}
	n.mu.Lock()
	mx := n.muxes[i]
	if mx == nil {
		var err error
		mx, err = transport.DialMux(n.nl.Addr().String(), transport.MuxConfig{})
		if err != nil {
			n.mu.Unlock()
			return nil, err
		}
		n.muxes[i] = mx
	}
	n.mu.Unlock()
	return mx.Open(foGroup)
}

// kill blackholes every socket of the node and refuses new connections.
func (n *node) kill() {
	n.dead.Store(true)
	n.nl.Close()
}

func (n *node) close() {
	n.nl.Close()
	n.leader.Close()
	n.mu.Lock()
	for _, m := range n.muxes {
		if m != nil {
			m.Close()
		}
	}
	n.mu.Unlock()
	n.serve.Wait()
}

// foMember is one session and what its event loop observed.
type foMember struct {
	idx  int
	sess atomic.Pointer[member.Session]
	seq  uint64 // owned by the generator that sends for it
	done chan struct{}

	mu     sync.Mutex
	chk    *seqCheck
	ep     epochWatch
	joins  []time.Duration // every EventJoined for itself
	firsts []time.Duration // first delivery after each of those joins
}

// foWorld is the failover set-up: the current node, its standby and the
// members.
type foWorld struct {
	r       *run
	base    time.Time
	kr      crypto.Key
	users   map[string]crypto.Key
	cur     atomic.Pointer[node]
	sb      *replica.Standby
	members []*foMember

	// The group's traffic runs from the first join until close; only
	// sends made while counting are tallied.
	stop                  chan struct{}
	gens                  sync.WaitGroup
	counting, inGap       atomic.Bool
	sent, refused, failed atomic.Int64
	lagMu                 sync.Mutex
	lag                   dist
}

// traffic starts nproc generators walking a seeded Poisson schedule of
// multicasts, foSendHz per member, until close.
func (w *foWorld) traffic() {
	owned := partition(foMembers, w.r.o.conns)
	t0 := w.now()
	for k := range owned {
		rng := rand.New(rand.NewSource(w.r.o.seed*15485863 + int64(k)))
		sched := poisson(rng, foSendHz*float64(len(owned[k])), foTrafficSpan, owned[k], opSend)
		w.gens.Add(1)
		go func() {
			defer w.gens.Done()
			buf := make([]byte, payloadSize)
			for _, a := range sched {
				due := t0 + a.At
				if d := due - w.now(); d > 0 {
					select {
					case <-w.stop:
						return
					case <-time.After(d):
					}
				}
				select {
				case <-w.stop:
					return
				default:
				}
				if m := w.members[a.Slot]; m.sess.Load() != nil {
					w.send(m, buf, due)
				}
			}
		}()
	}
}

// send multicasts m's next message. Sends refused with ErrDown (or on a
// session torn down by its watchdog) inside a failover gap are refused,
// not failed: the gap metric already prices them.
func (w *foWorld) send(m *foMember, buf []byte, due time.Duration) {
	m.seq++
	encodeMsg(buf, msgHdr{Sender: uint32(m.idx), Seq: m.seq, Sched: due})
	err := m.sess.Load().SendData(buf)
	if !w.counting.Load() {
		return
	}
	w.lagMu.Lock()
	w.lag.addDur(w.now() - due)
	w.lagMu.Unlock()
	switch {
	case err == nil:
		w.sent.Add(1)
	case w.inGap.Load() && (errors.Is(err, member.ErrDown) || errors.Is(err, transport.ErrClosed)):
		w.refused.Add(1)
	default:
		w.failed.Add(1)
		w.r.v.fail("%s send: %v", userName(m.idx), err)
	}
}

func (w *foWorld) now() time.Duration { return time.Since(w.base) }

func (w *foWorld) config() group.Config {
	return group.Config{
		Name:        foGroup,
		Users:       w.users,
		Rekey:       group.DefaultRekeyPolicy(),
		Liveness:    group.Liveness{HeartbeatInterval: heartbeat, AckTimeout: ackTimeout},
		OutboxLimit: outboxLimit,
		ReplKey:     w.kr,
		ReplPing:    foReplPing,
	}
}

// subscribe attaches a fresh standby to the current node and waits until
// it mirrors the whole group.
func (w *foWorld) subscribe() error {
	n := w.cur.Load()
	sb, err := replica.NewStandby(replica.StandbyConfig{
		Standby: "standby", Primary: foGroup, Key: w.kr,
		Dial:    func() (transport.Conn, error) { return transport.DialTCP(n.nl.Addr().String()) },
		Silence: foStandbySilence,
	})
	if err != nil {
		return err
	}
	w.sb = sb
	ok := waitFor(foRecover, func() bool {
		if !sb.Synced() {
			return false
		}
		st := sb.State()
		return len(st.Members) == foMembers && st.Epoch == n.leader.Epoch()
	})
	if !ok {
		return fmt.Errorf("standby did not mirror the group within %v", foRecover)
	}
	// Let the session-resume nonces of the latest admin exchange land.
	time.Sleep(50 * time.Millisecond)
	return nil
}

// steady reports whether every member is up at the leader's epoch.
func (w *foWorld) steady() bool {
	e := w.cur.Load().leader.Epoch()
	for _, m := range w.members {
		if !m.sess.Load().Up() || m.sess.Load().Epoch() != e {
			return false
		}
	}
	return len(w.cur.Load().leader.Members()) == foMembers
}

func newFoWorld(r *run) (*foWorld, time.Duration, error) {
	t0 := time.Now()
	kr, err := crypto.NewKey()
	if err != nil {
		return nil, 0, err
	}
	w := &foWorld{r: r, base: time.Now(), kr: kr, users: deriveKeys(1, foMembers)[foGroup], stop: make(chan struct{})}
	ld, err := group.NewLeader(w.config())
	if err != nil {
		return nil, 0, err
	}
	n, err := startNode(ld, r.o.conns, r.tr)
	if err != nil {
		return nil, 0, err
	}
	w.cur.Store(n)
	w.members = make([]*foMember, foMembers)
	for i := range w.members {
		w.members[i] = &foMember{idx: i, chk: newSeqCheck(true, true), done: make(chan struct{})}
	}
	w.traffic()
	err = parallel(foMembers, joinsInFlight, func(i int) error {
		u := userName(i)
		cfg := member.SessionConfig{
			User: u,
			Endpoints: []member.Endpoint{{
				Leader:   foGroup,
				LongTerm: w.users[u],
				Dial: func() (transport.Conn, error) {
					r.tr.dialed(i, w.now())
					c, err := w.cur.Load().open(i % r.o.conns)
					if err != nil {
						return nil, err
					}
					return r.tr.wrapConn(c), nil
				},
			}},
			Backoff:        foBackoff,
			ReadyTimeout:   joinTimeout,
			SilenceTimeout: foSilence,
		}
		// The silence budget also bounds the handshake, so a join that
		// waits out the join storm behind 63 others can time out; it
		// retries, as BenchmarkFailover's set-up does.
		deadline := time.Now().Add(joinTimeout)
		s, err := member.NewSession(cfg)
		for err != nil && time.Now().Before(deadline) {
			time.Sleep(foBackoff)
			s, err = member.NewSession(cfg)
		}
		if err != nil {
			return fmt.Errorf("session %s: %w", u, err)
		}
		w.members[i].sess.Store(s)
		go w.events(w.members[i])
		return nil
	})
	if err == nil && !waitFor(foRecover, w.steady) {
		err = errors.New("set-up: the group did not converge")
	}
	if err == nil {
		err = w.subscribe()
	}
	if err != nil {
		w.close()
		return nil, 0, err
	}
	return w, time.Since(t0), nil
}

func (w *foWorld) close() {
	close(w.stop)
	w.gens.Wait()
	if w.sb != nil {
		w.sb.Stop()
	}
	_ = parallel(len(w.members), joinsInFlight, func(i int) error {
		if s := w.members[i].sess.Load(); s != nil {
			s.Close()
			<-w.members[i].done
		}
		return nil
	})
	w.cur.Load().close()
}

// events consumes one session's unified event stream.
func (w *foWorld) events(m *foMember) {
	defer close(m.done)
	self := userName(m.idx)
	for {
		ev, err := m.sess.Load().Next()
		if err != nil || ev.Kind == member.EventClosed {
			return
		}
		now := w.now()
		switch ev.Kind {
		case member.EventJoined:
			if ev.Name == self {
				m.mu.Lock()
				m.joins = append(m.joins, now)
				m.mu.Unlock()
				w.r.tr.resumed(m.idx, now)
			}
		case member.EventData:
			h, ok := decodeMsg(ev.Data)
			if !ok {
				w.r.v.fail("%s: corrupt payload from %s", self, ev.From)
				continue
			}
			m.mu.Lock()
			problem := m.chk.observe(h.Sender, h.Seq)
			if len(m.firsts) < len(m.joins) {
				m.firsts = append(m.firsts, now)
			}
			m.mu.Unlock()
			w.r.v.check(self, problem)
		case member.EventRekey:
			m.mu.Lock()
			problem := m.ep.observe(ev.Epoch)
			m.mu.Unlock()
			w.r.v.check(self, problem)
		}
	}
}

// serviceAfter returns when member m first received a multicast on a
// session it joined after t, if it has.
func (m *foMember) serviceAfter(t time.Duration) (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, j := range m.joins {
		if j > t && i < len(m.firsts) {
			return m.firsts[i], true
		}
	}
	return 0, false
}

func runFailover(r *run) error {
	var setups []float64
	var w *foWorld
	for i := 0; i < setupReps; i++ {
		nw, took, err := newFoWorld(r)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < setupReps-1 {
			nw.close()
			runtime.GC() // the next set-up starts from a quiet process
		} else {
			w = nw
		}
	}
	defer w.close()
	r.set("setup_s", median(setups), "s")
	r.say("topology: self-hosted leader + hot standby, loopback TCP, %d mux connections per node, %d sessions, %d kills, send %g Hz/member; timers: member silence %v, heartbeat %v, standby silence %v, replication ping %v, rejoin backoff %v; setups %v s",
		r.o.conns, foMembers, foKills, foSendHz, foSilence, heartbeat, foStandbySilence, foReplPing, foBackoff, setups)

	var (
		gap, detect, promote dist
		resumeFail           int64
		rejoins              []uint64 // per kill: members that fell back to a full join
	)
	w.counting.Store(true)
	runtime.GC() // the set-ups' garbage is not the window's
	r.tr.start(foMembers)
	u0 := usageNow()
	for k := 0; k < foKills && r.v.count() == 0; k++ {
		old := w.cur.Load()
		pre := old.leader.Epoch()
		sb := w.sb
		w.inGap.Store(true)
		tKill := w.now()
		old.kill()
		select {
		case <-sb.Dead():
		case <-time.After(foRecover):
			return errors.New("standby never declared the primary dead")
		}
		tDead := w.now()
		st := sb.State()
		sb.Stop()
		ld, err := group.Promote(w.config(), st)
		if err != nil {
			return fmt.Errorf("promote: %w", err)
		}
		tUp := w.now()
		n, err := startNode(ld, r.o.conns, r.tr)
		if err != nil {
			return err
		}
		w.cur.Store(n)
		detect.addDur(tDead - tKill)
		promote.addDur(tUp - tDead)
		r.tr.failover(tKill, tDead, tUp)

		// Every member must come back, be served through the promoted
		// leader, and hold an epoch past the one before the kill.
		back := waitFor(foRecover, func() bool {
			for _, m := range w.members {
				if _, ok := m.serviceAfter(tKill); !ok || m.sess.Load().Epoch() <= pre {
					return false
				}
			}
			return true
		})
		if !back {
			resumeFail++
			r.v.fail("kill %d: not every member was served again past epoch %d within %v", k, pre, foRecover)
			break
		}
		for _, m := range w.members {
			at, _ := m.serviceAfter(tKill)
			gap.addDur(at - tKill)
		}
		old.close()
		if !waitFor(foRecover, w.steady) {
			r.v.fail("kill %d: the group did not settle on the promoted leader", k)
			break
		}
		w.inGap.Store(false)
		// Promotion rotates once; every member that could not resume
		// rejoined, and each full join rotates once more.
		rejoins = append(rejoins, w.cur.Load().leader.Epoch()-pre-1)
		if err := w.subscribe(); err != nil {
			return err
		}
	}
	used := usageNow().since(u0)
	w.counting.Store(false)
	rss := rssMiB()
	w.lagMu.Lock()
	lag := dist{xs: append([]float64(nil), w.lag.xs...)}
	w.lagMu.Unlock()
	r.tr.stop(phaseResult{lag: &lag, lat: &dist{}})

	resumes := int64(foMembers * foKills)
	r.attempted += w.sent.Load() + w.failed.Load() + resumes
	r.failed += w.failed.Load() + resumeFail
	r.sayDist("failover_gap", "ms", &gap)
	r.sayDist("replica.detect", "ms", &detect)
	r.sayDist("replica.promote", "ms", &promote)
	r.say("full rejoins instead of resumes, per kill: %v of %d members", rejoins, foMembers)
	r.say("sends %d, refused in the gap %d, failed %d, resumes %d, cpu %v (%.4g us per resume), rss %.1f MiB",
		w.sent.Load(), w.refused.Load(), w.failed.Load(), resumes, used.cpu, float64(used.cpu.Microseconds())/float64(resumes), rss)
	r.set("latency_p50_ms", gap.quantile(0.5), "ms")
	r.setPerOp(used, float64(resumes))
	r.set("rss_mb", rss, "MiB")
	r.set("failover.refused", float64(w.refused.Load()), "count")
	return r.tr.finish(r)
}
