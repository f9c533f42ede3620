// Package member implements the user side of an Enclaves application
// (Figure 1): it joins a group through the improved authentication protocol
// (via core.MemberSession), maintains the member's view of the group —
// membership and current group key — from the verified stream of
// group-management messages, and sends and receives application multicast
// encrypted under the group key.
//
// Because the AdminMsg pipeline is proven to deliver group-management
// messages in order, without duplication, and only from the leader
// (Section 5.4), the view maintained here is exactly the leader's history:
// a compromised member or outsider cannot make this member believe a key or
// membership change the leader did not issue.
package member

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/queue"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// EventKind classifies events delivered to the application.
type EventKind uint8

// Event kinds.
const (
	// EventJoined: a member joined the group.
	EventJoined EventKind = iota + 1
	// EventLeft: a member left or was expelled.
	EventLeft
	// EventRekey: the leader distributed a new group key.
	EventRekey
	// EventData: application data from another member.
	EventData
	// EventClosed: the session ended; Err carries the cause (nil after a
	// voluntary Leave).
	EventClosed
)

func (k EventKind) String() string {
	switch k {
	case EventJoined:
		return "Joined"
	case EventLeft:
		return "Left"
	case EventRekey:
		return "Rekey"
	case EventData:
		return "Data"
	case EventClosed:
		return "Closed"
	default:
		return "invalid"
	}
}

// Event is one notification to the application.
type Event struct {
	Kind  EventKind
	Name  string // member name for Joined/Left
	Epoch uint64 // group-key epoch for Rekey and Data
	From  string // sender for Data
	Data  []byte // payload for Data
	Err   error  // cause for Closed
	// Seq, for events driven by a group-management message, is the
	// AdminMsg's leader-assigned pipeline sequence number — the trace ID
	// that correlates this member-side event with the leader's audit log
	// for the same broadcast. Zero for non-admin events (Data, Closed).
	Seq uint64
}

func (e Event) String() string {
	switch e.Kind {
	case EventJoined:
		return "Joined(" + e.Name + ")"
	case EventLeft:
		return "Left(" + e.Name + ")"
	case EventRekey:
		return fmt.Sprintf("Rekey(epoch=%d)", e.Epoch)
	case EventData:
		return fmt.Sprintf("Data(from=%s, %dB)", e.From, len(e.Data))
	case EventClosed:
		return fmt.Sprintf("Closed(err=%v)", e.Err)
	default:
		return "Event(?)"
	}
}

// ErrNoGroupKey is returned by SendData before the first group key arrives.
var ErrNoGroupKey = errors.New("member: no group key yet")

// ErrLeft is returned by operations after Leave.
var ErrLeft = errors.New("member: session left")

// ErrLeaderSilent is the EventClosed cause when the leader sent nothing for
// longer than Options.SilenceTimeout. It is distinguishable from an
// ordinary connection loss so supervisors (member.Session) know the leader
// is unresponsive — wedged, partitioned, or dead — and should fail over.
var ErrLeaderSilent = errors.New("member: leader silent beyond timeout")

// Options tunes a member session beyond the required identity parameters.
type Options struct {
	// SilenceTimeout closes the session with ErrLeaderSilent when no frame
	// arrives from the leader for this long. Pair it with leader-side
	// heartbeats (group.Liveness.HeartbeatInterval) comfortably shorter
	// than this timeout, or an idle but healthy leader looks dead. The same
	// budget bounds the join or resume handshake. Zero disables the watch.
	SilenceTimeout time.Duration
}

// Member is a connected group member.
type Member struct {
	name   string
	leader string
	conn   transport.Conn
	engine *core.MemberSession

	// watch closes conn when the leader stays silent past
	// Options.SilenceTimeout: from the first handshake send, and from the
	// established session's last received frame. Nil when disabled.
	watch *transport.Silence

	mu       sync.Mutex
	groupKey crypto.Key
	epoch    uint64
	// groupCipher/prevCipher carry the precomputed AEADs for the group keys
	// above: the AES key schedule and GCM tables are built once per rekey
	// instead of once per multicast seal/open.
	groupCipher *crypto.Cipher
	prevCipher  *crypto.Cipher
	// prevKey/prevEpoch retain the immediately superseded group key for
	// one epoch, so multicast that was in flight across a rekey still
	// decrypts. Anything older is rejected: the forward-secrecy boundary
	// for departed members is one rekey behind the leader's, a documented
	// trade (a member expelled at epoch n reads nothing from epoch n+2 on,
	// and in the default on-leave policy its last key dies immediately
	// after the NEXT membership change).
	prevKey   crypto.Key
	prevEpoch uint64
	view      map[string]bool
	left      bool

	// pathKeys is the LKH key bag: every node key this member holds on its
	// leaf-to-root path, by node ID (see lkh.go). Nil until the leader
	// delivers the first PathKeys — i.e. nil for flat-keyed groups.
	// syncEpoch rate-limits outbound KeySyncReq to one per target epoch.
	pathKeys  map[uint64]pathEntry
	syncEpoch uint64

	// lastAdminPayload/lastAck cache the most recently acknowledged
	// AdminMsg and its ack (under mu). When the leader retransmits an
	// unacknowledged AdminMsg (its copy of our ack was lost), the engine
	// rejects the duplicate — the nonce chain already consumed it — but the
	// runtime re-sends the cached ack, which is idempotent: a leader that
	// DID see the first ack rejects the second without state change. This
	// keeps a lost ack from escalating into an ack-deadline eviction.
	lastAdminPayload []byte
	lastAck          *wire.Envelope

	events *queue.Queue[Event]
	done   chan struct{}

	// outQ decouples producers (SendData, acks) from the transport: a writer
	// goroutine drains it in batches and transmits behind a single flush.
	outQ       *queue.Queue[wire.Envelope]
	writerDone chan struct{}

	rejected atomic.Uint64 // frames rejected by the engine or epoch checks
}

// Join connects as user to the leader over conn, runs the three-message
// authentication, and starts the receive loop. The long-term key is the
// P_user shared with the leader (crypto.DeriveKey).
func Join(conn transport.Conn, user, leader string, longTerm crypto.Key) (*Member, error) {
	return JoinOpts(conn, user, leader, longTerm, Options{})
}

// JoinOpts is Join with liveness options.
func JoinOpts(conn transport.Conn, user, leader string, longTerm crypto.Key, opts Options) (m *Member, err error) {
	engine, err := core.NewMemberSession(user, leader, longTerm)
	if err != nil {
		return nil, err
	}
	initReq, err := engine.Start()
	if err != nil {
		return nil, err
	}
	// The silence timeout also bounds the handshake itself: over a lossy
	// link a lost join frame would otherwise block Recv below forever,
	// since the three-message join has no retransmission. Handshake frames
	// do not touch the watch, so the bound is absolute; closing the conn
	// fails the join so a supervisor can redial.
	watch := transport.NewSilence(opts.SilenceTimeout, func() { conn.Close() })
	defer func() {
		if err != nil {
			watch.Stop()
		}
	}()
	if err := conn.Send(initReq); err != nil {
		return nil, fmt.Errorf("member: send join: %w", err)
	}
	// Wait for the key distribution; a hostile network may interleave
	// junk, which the engine rejects without state change.
	for engine.Phase() != core.MemberConnected {
		env, err := conn.Recv()
		if err != nil {
			return nil, fmt.Errorf("member: join: %w", err)
		}
		ev, err := engine.Handle(env)
		if err != nil {
			continue // rejected frame; keep waiting for the genuine one
		}
		if ev.Reply != nil {
			if err := conn.Send(*ev.Reply); err != nil {
				return nil, fmt.Errorf("member: send key ack: %w", err)
			}
		}
	}
	m = newMember(conn, engine, user, leader, watch)
	m.start()
	return m, nil
}

// newMember builds the runtime around an established engine session.
func newMember(conn transport.Conn, engine *core.MemberSession, user, leader string, watch *transport.Silence) *Member {
	return &Member{
		name:       user,
		leader:     leader,
		conn:       conn,
		engine:     engine,
		watch:      watch,
		view:       map[string]bool{user: true},
		events:     queue.New[Event](),
		done:       make(chan struct{}),
		outQ:       queue.New[wire.Envelope](),
		writerDone: make(chan struct{}),
	}
}

// start restarts the silence budget for the established session and runs
// the receive and write loops. The leader detects dead members via ack
// deadlines; the member detects a dead leader via silence.
func (m *Member) start() {
	m.watch.Touch()
	go m.recvLoop()
	go m.writeLoop()
}

// Name returns this member's identity.
func (m *Member) Name() string { return m.name }

// Leader returns the leader's identity.
func (m *Member) Leader() string { return m.leader }

// Members returns this member's current view of the group, sorted.
func (m *Member) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.view))
	for u := range m.view {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Epoch returns the current group-key epoch (0 until the first key
// arrives).
func (m *Member) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// GroupKey returns the current group key and epoch. Exposed for tests and
// attack scenarios.
func (m *Member) GroupKey() (crypto.Key, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groupKey, m.epoch
}

// WaitReady blocks until the leader's first group key has arrived (the
// session is then fully usable for SendData), the session closes, or the
// timeout expires. The improved protocol distributes the group key in a
// group-management message AFTER authentication (Section 3.2 removed K_g
// from the handshake), so there is a short window where a freshly joined
// member cannot encrypt yet.
func (m *Member) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		ready, left := m.groupKey.Valid(), m.left
		m.mu.Unlock()
		if ready {
			return nil
		}
		if left {
			return ErrLeft
		}
		time.Sleep(time.Millisecond)
	}
	return ErrNoGroupKey
}

// Rejected returns how many frames were rejected as replays, forgeries, or
// stale-epoch traffic — the observable footprint of tolerated intrusion
// attempts.
func (m *Member) Rejected() uint64 { return m.rejected.Load() }

// reject records one rejected frame, both per member and in the global
// snapshot.
func (m *Member) reject() {
	m.rejected.Add(1)
	mRejected.Inc()
}

// Next blocks until the next event (or EventClosed).
func (m *Member) Next() (Event, error) {
	ev, err := m.events.Pop()
	if err != nil {
		return Event{Kind: EventClosed}, ErrLeft
	}
	return ev, nil
}

// TryNext returns the next event without blocking.
func (m *Member) TryNext() (Event, bool) {
	return m.events.TryPop()
}

// SendData multicasts application data to the group, encrypted under the
// current group key.
func (m *Member) SendData(data []byte) error {
	m.mu.Lock()
	gc, epoch, left := m.groupCipher, m.epoch, m.left
	m.mu.Unlock()
	if left {
		return ErrLeft
	}
	if gc == nil {
		return ErrNoGroupKey
	}
	env := wire.Envelope{Type: wire.TypeAppData, Sender: m.name, Receiver: m.leader}
	payload := wire.AppDataPayload{Sender: m.name, Epoch: epoch, Data: data}
	box, err := gc.Seal(payload.Marshal(), env.Header())
	if err != nil {
		return err
	}
	env.Payload = box
	return m.send(env)
}

// send hands an envelope to the writer goroutine. A closed queue means the
// session is tearing down; report it as the connection being closed so
// callers see the same error a direct send on a dead conn would yield.
func (m *Member) send(env wire.Envelope) error {
	if err := m.outQ.Push(env); err != nil {
		return transport.ErrClosed
	}
	return nil
}

// writeLoop drains the outbound queue in batches and transmits each drained
// backlog behind a single flush. It exits when the queue closes (Leave or
// the receive loop tearing down) or the transport fails.
func (m *Member) writeLoop() {
	defer close(m.writerDone)
	var (
		envs  []wire.Envelope
		batch []transport.Outgoing
	)
	for {
		var err error
		envs, err = m.outQ.PopAll(envs)
		if err != nil {
			return
		}
		batch = batch[:0]
		for _, e := range envs {
			batch = append(batch, transport.Outgoing{Env: e})
		}
		if err := m.conn.SendBatch(batch); err != nil {
			return
		}
	}
}

// Leave ends the session with the unreplayable ReqClose and closes the
// connection.
func (m *Member) Leave() error {
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return ErrLeft
	}
	m.left = true
	m.mu.Unlock()

	closeEnv, err := m.engineLeave()
	if err == nil {
		err = m.send(closeEnv)
	}
	// Close the queue and wait for the writer so the ReqClose actually
	// flushes before the connection is torn down under it.
	m.outQ.Close()
	<-m.writerDone
	m.conn.Close()
	<-m.done
	return err
}

// engineLeave serializes access to the engine against the receive loop.
func (m *Member) engineLeave() (wire.Envelope, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.engine.Leave()
}

// recvLoop drives the engine with incoming frames until the connection
// drops.
func (m *Member) recvLoop() {
	defer close(m.done)
	for {
		env, err := m.conn.Recv()
		if err != nil {
			m.watch.Stop()
			m.mu.Lock()
			left := m.left
			m.mu.Unlock()
			if left {
				err = nil
			} else if m.watch.Fired() {
				err = ErrLeaderSilent
				mWatchdogTrips.Inc()
			}
			m.events.Push(Event{Kind: EventClosed, Err: err})
			m.events.Close()
			m.outQ.Close() // no conn to write to; release the writer
			return
		}
		m.watch.Touch()
		m.handle(env)
	}
}

// handle processes one received frame.
func (m *Member) handle(env wire.Envelope) {
	switch env.Type {
	case wire.TypeAdminMsg:
		m.handleAdmin(env)
	case wire.TypeResumeAck:
		// A retransmitted ResumeAck (our completing ack was lost) is rejected
		// by the engine — the resumption already consumed it — but the re-ack
		// cache seeded by Resume answers it, same as a duplicate AdminMsg.
		m.handleAdmin(env)
	case wire.TypeKeyUpdate:
		m.handleKeyUpdate(env)
	case wire.TypeAppData:
		m.handleAppData(env)
	default:
		m.reject()
	}
}

// handleAdmin feeds an AdminMsg to the engine, sends the acknowledgment,
// and applies the body to the view.
func (m *Member) handleAdmin(env wire.Envelope) {
	m.mu.Lock()
	ev, err := m.engine.Handle(env)
	if err != nil {
		// A duplicate of the last acked AdminMsg means the leader never got
		// our ack; re-send it. Anything else is junk to tolerate.
		var resend *wire.Envelope
		if m.lastAck != nil && bytes.Equal(env.Payload, m.lastAdminPayload) {
			resend = m.lastAck
		}
		m.mu.Unlock()
		m.reject()
		if resend != nil {
			mReacks.Inc()
			m.conn.Send(*resend)
		}
		return
	}
	var out Event
	switch body := ev.Admin.(type) {
	case wire.NewGroupKey:
		m.installGroupKeyLocked(body.Key, body.Epoch)
		out = Event{Kind: EventRekey, Epoch: body.Epoch}
	case wire.PathKeys:
		out = m.applyPathKeysLocked(body)
	case wire.MemberJoined:
		m.view[body.Name] = true
		out = Event{Kind: EventJoined, Name: body.Name}
	case wire.MemberLeft:
		delete(m.view, body.Name)
		out = Event{Kind: EventLeft, Name: body.Name}
	case wire.MemberList:
		m.view = make(map[string]bool, len(body.Names))
		for _, n := range body.Names {
			m.view[n] = true
		}
		out = Event{Kind: EventJoined, Name: m.name} // our own join completed
	case wire.Heartbeat:
		// Liveness probe: the ack sent below is the whole point; no
		// application event. Receipt already touched the silence watch.
	}
	if ev.Reply != nil {
		m.lastAdminPayload = append(m.lastAdminPayload[:0], env.Payload...)
		ack := *ev.Reply
		m.lastAck = &ack
	}
	m.mu.Unlock()

	// Acks bypass the batching queue: the pipeline is ack-gated with at most
	// one AdminMsg outstanding per member, so there is never an ack backlog
	// to coalesce — routing them through the writer would only add a
	// goroutine handoff to the round trip that gates every broadcast. Conn
	// implementations are safe for concurrent use, so the direct send may
	// interleave with the writer's batches.
	if ev.Reply != nil {
		if err := m.conn.Send(*ev.Reply); err != nil {
			return
		}
	}
	if out.Kind != 0 {
		out.Seq = ev.Seq
		m.events.Push(out)
		mEvents.Inc()
	}
}

// handleAppData decrypts relayed application data under the current group
// key; traffic under old epochs (e.g. replays predating a rekey) is
// rejected.
func (m *Member) handleAppData(env wire.Envelope) {
	m.mu.Lock()
	gc, epoch := m.groupCipher, m.epoch
	prev, prevEpoch := m.prevCipher, m.prevEpoch
	m.mu.Unlock()
	if gc == nil {
		m.reject()
		return
	}
	// Try the current key first, then the one-epoch grace key for traffic
	// that was in flight across a rekey.
	plain, err := gc.Open(env.Payload, env.Header())
	wantEpoch := epoch
	if err != nil && prev != nil {
		plain, err = prev.Open(env.Payload, env.Header())
		wantEpoch = prevEpoch
	}
	if err != nil {
		m.reject()
		return
	}
	p, err := wire.UnmarshalAppData(plain)
	if err != nil || p.Epoch != wantEpoch {
		m.reject()
		return
	}
	m.events.Push(Event{Kind: EventData, From: p.Sender, Epoch: p.Epoch, Data: p.Data})
	mEvents.Inc()
}
