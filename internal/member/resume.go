package member

import (
	"fmt"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// ResumeState snapshots the session state needed to resume this member's
// session against a promoted standby: the session key K_a and the latest
// chained nonce. It reports false while the engine is not in an established
// session (mid-handshake, or already left). The snapshot stays valid after
// the connection dies — connection loss does not touch engine state — which
// is exactly the failover case.
func (m *Member) ResumeState() (core.SessionState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.left {
		return core.SessionState{}, false
	}
	return m.engine.ExportState()
}

// Resume re-attaches a session to a (promoted) leader using the state of a
// previous connection: the two-message resumption sub-protocol replaces the
// password handshake, authenticating under the existing session key and the
// last chained nonce. The ResumeAck delivers the current (post-promotion)
// group key, so the returned Member is immediately ready — no WaitReady
// window, and no pre-promotion key ever held.
func Resume(conn transport.Conn, st core.SessionState, longTerm crypto.Key, opts Options) (m *Member, err error) {
	engine, err := core.ResumeMemberSession(st.User, st.Leader, longTerm, st)
	if err != nil {
		return nil, err
	}
	resumeEnv, err := engine.StartResume()
	if err != nil {
		return nil, err
	}
	// Bound the resumption exchange like JoinOpts bounds the join: a lost
	// frame must fail the attempt so the supervisor can fall back.
	watch := transport.NewSilence(opts.SilenceTimeout, func() { conn.Close() })
	defer func() {
		if err != nil {
			watch.Stop()
		}
	}()
	if err := conn.Send(resumeEnv); err != nil {
		return nil, fmt.Errorf("member: send resume: %w", err)
	}

	// Wait for the ResumeAck; junk is rejected without state change, but a
	// freshness or authentication failure on a genuine ResumeAck is
	// unrecoverable for this attempt (the leader rejected or the state is
	// stale), surfaced when the connection then drops.
	var (
		keyBody    wire.AdminBody
		keySeq     uint64
		firstReply *wire.Envelope
		ackedBytes []byte
	)
	for engine.Phase() != core.MemberConnected {
		env, err := conn.Recv()
		if err != nil {
			return nil, fmt.Errorf("member: resume: %w", err)
		}
		ev, err := engine.Handle(env)
		if err != nil {
			continue
		}
		switch ev.Admin.(type) {
		case wire.NewGroupKey, wire.PathKeys:
			// The post-promotion key material: the flat group key, or under
			// LKH the member's complete leaf-to-root path (whose root IS the
			// group key).
			keyBody, keySeq = ev.Admin, ev.Seq
		default:
			// Any other body (or none) cannot complete the resumption; the
			// !Valid check below rejects the attempt.
		}
		firstReply = ev.Reply
		ackedBytes = env.Payload
	}

	m = newMember(conn, engine, st.User, st.Leader, watch)
	switch body := keyBody.(type) {
	case wire.NewGroupKey:
		m.groupKey = body.Key
		m.epoch = body.Epoch
		m.groupCipher, _ = crypto.NewCipher(body.Key)
	case wire.PathKeys:
		m.pathKeys = make(map[uint64]pathEntry, len(body.Entries))
		for _, e := range body.Entries {
			m.pathKeys[e.Node] = pathEntry{ver: e.Ver, key: e.Key}
		}
		if gk, ok := body.GroupKey(); ok {
			m.groupKey = gk
			m.groupCipher, _ = crypto.NewCipher(gk)
		}
		m.epoch = body.Epoch
	default:
		// keyBody is nil: no key material arrived; rejected below.
	}
	if !m.groupKey.Valid() {
		conn.Close()
		return nil, fmt.Errorf("member: resume ack carried no group key")
	}
	// Seed the re-ack cache with the ResumeAck itself: if our ack below is
	// lost, the leader retransmits the ResumeAck and the cache answers it,
	// exactly as for an ordinary AdminMsg (see handleAdmin).
	if firstReply != nil {
		m.lastAdminPayload = append([]byte(nil), ackedBytes...)
		ack := *firstReply
		m.lastAck = &ack
	}

	// Ack the ResumeAck only now that the loops are about to start: from the
	// leader's point of view the pipeline resumes here, and the MemberList
	// that follows must find a running receive loop.
	if firstReply != nil {
		if err := conn.Send(*firstReply); err != nil {
			conn.Close()
			return nil, fmt.Errorf("member: send resume ack: %w", err)
		}
	}
	mResumed.Inc()
	m.start()
	// Surface the post-promotion key to the application as the usual rekey
	// event, correlated with the leader's pipeline sequence.
	m.events.Push(Event{Kind: EventRekey, Epoch: m.epoch, Seq: keySeq})
	mEvents.Inc()
	return m, nil
}
