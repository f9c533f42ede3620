package member

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/queue"
	"enclaves/internal/transport"
)

// This file implements automatic re-join: the library form of the
// failover pattern (examples/failover) and the paper's future-work
// direction of surviving leader loss. A Session owns a sequence of Member
// sessions: whenever the current one dies involuntarily, it re-runs the
// authenticated join against the configured endpoints (primary first, then
// standbys) with exponential backoff. Because the protocol authenticates
// from long-term keys alone and generates all session state fresh, rejoin
// needs no recovery handshake beyond the verified three-message join.

// Endpoint describes one leader the session may (re)join.
type Endpoint struct {
	// Leader is the leader's identity at this endpoint.
	Leader string
	// LongTerm is the key shared with THIS leader (keys are per leader:
	// crypto.DeriveKey binds the leader name).
	LongTerm crypto.Key
	// Dial opens a fresh connection to the endpoint.
	Dial func() (transport.Conn, error)
}

// SessionConfig configures an auto-rejoining session.
type SessionConfig struct {
	// User is this member's identity.
	User string
	// Endpoints are tried in order on every (re)join round.
	Endpoints []Endpoint
	// Backoff is the base delay before the first rejoin attempt; it doubles
	// per failed round, capped at 32x, and every wait is jittered uniformly
	// over [backoff/2, backoff) from a PRNG seeded by the user name — after
	// a leader failure, thousands of members desynchronize their reconnect
	// attempts deterministically instead of stampeding the promoted standby
	// in lockstep. Zero means 50ms.
	Backoff time.Duration
	// MaxRounds bounds rejoin rounds (a round tries every endpoint once);
	// zero means unlimited.
	MaxRounds int
	// ReadyTimeout bounds the wait for the first group key after each
	// join; zero means 10s.
	ReadyTimeout time.Duration
	// SilenceTimeout arms each underlying session's leader-silence
	// watch (Options.SilenceTimeout): a wedged or partitioned leader is
	// detected without waiting for a transport error, and the session
	// fails over to the next endpoint automatically. Zero disables it.
	SilenceTimeout time.Duration
}

// ErrDown is returned by Session.SendData while no leader is joined.
var ErrDown = errors.New("member: session down, rejoining")

// ErrGaveUp is carried by the final EventClosed after MaxRounds failed
// rejoin rounds.
var ErrGaveUp = errors.New("member: gave up rejoining")

// Session is an auto-rejoining group membership. Events from successive
// underlying sessions are delivered on one unified stream; an EventJoined
// for the member itself marks each successful (re)join.
type Session struct {
	cfg SessionConfig

	mu      sync.Mutex
	current *Member // nil while down
	closed  bool

	events  *queue.Queue[Event]
	done    chan struct{}
	closing chan struct{} // closed by Close; cancels backoff waits
}

// NewSession joins through the first reachable endpoint and starts the
// supervision loop. It fails if the initial round reaches no endpoint.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.User == "" {
		return nil, errors.New("member: session user must be non-empty")
	}
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("member: session needs at least one endpoint")
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 10 * time.Second
	}
	s := &Session{
		cfg:     cfg,
		events:  queue.New[Event](),
		done:    make(chan struct{}),
		closing: make(chan struct{}),
	}
	m, err := s.joinOnce()
	if err != nil {
		return nil, err
	}
	s.current = m
	go s.supervise(m)
	return s, nil
}

// joinOnce tries every endpoint once and returns the first success.
func (s *Session) joinOnce() (*Member, error) {
	var lastErr error
	for _, ep := range s.cfg.Endpoints {
		conn, err := ep.Dial()
		if err != nil {
			lastErr = err
			continue
		}
		m, err := JoinOpts(conn, s.cfg.User, ep.Leader, ep.LongTerm, Options{SilenceTimeout: s.cfg.SilenceTimeout})
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		if err := m.WaitReady(s.cfg.ReadyTimeout); err != nil {
			m.Leave()
			lastErr = err
			continue
		}
		return m, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no endpoints")
	}
	return nil, fmt.Errorf("member: all endpoints failed: %w", lastErr)
}

// supervise pumps the current member's events and rejoins on involuntary
// loss. A session lost to leader silence (failover) first tries the
// resumption sub-protocol — re-attaching to the promoted standby under the
// existing session key, no password re-handshake — and only falls back to
// the full join when resumption is refused or unreachable.
func (s *Session) supervise(m *Member) {
	defer close(s.done)
	rng := newJitterRNG(s.cfg.User)
	s.events.Push(Event{Kind: EventJoined, Name: s.cfg.User})
	for {
		failure := s.pump(m)
		s.mu.Lock()
		s.current = nil
		closed := s.closed
		s.mu.Unlock()
		if closed || failure == nil {
			// Voluntary close.
			s.events.Push(Event{Kind: EventClosed})
			s.events.Close()
			return
		}
		// Silence means the leader is gone (wedged, partitioned, dead) — the
		// failover case resumption exists for. An ordinary connection loss to
		// a healthy leader re-joins directly; a live primary has no resumable
		// entry and would refuse anyway.
		var resumeSt core.SessionState
		var canResume bool
		if errors.Is(failure, ErrLeaderSilent) {
			resumeSt, canResume = m.ResumeState()
		}

		// Rejoin rounds with jittered exponential backoff. The wait is
		// cancellable: Close must not block behind a sleep that can reach 32x
		// the base backoff.
		backoff := s.cfg.Backoff
		round := 0
		for {
			round++
			if s.cfg.MaxRounds > 0 && round > s.cfg.MaxRounds {
				s.events.Push(Event{Kind: EventClosed, Err: ErrGaveUp})
				s.events.Close()
				return
			}
			wait := time.NewTimer(rng.jittered(backoff))
			select {
			case <-wait.C:
			case <-s.closing:
				wait.Stop()
			}
			if backoff < 32*s.cfg.Backoff {
				backoff *= 2
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.events.Push(Event{Kind: EventClosed})
				s.events.Close()
				return
			}
			var next *Member
			if canResume {
				mResumeAttempts.Inc()
				if r, err := s.resumeOnce(resumeSt); err == nil {
					next = r
				} else {
					mResumeFallback.Inc()
				}
			}
			if next == nil {
				mRejoins.Inc()
				joined, err := s.joinOnce()
				if err != nil {
					continue
				}
				next = joined
				canResume = false // fresh session; the old state is obsolete
			}
			s.mu.Lock()
			if s.closed {
				// Close ran while the join/resume was in flight: it found no
				// current member to Leave, so this one is ours to dismantle —
				// installing it would leave pump blocked on a session nobody
				// ever closes.
				s.mu.Unlock()
				next.Leave()
				s.events.Push(Event{Kind: EventClosed})
				s.events.Close()
				return
			}
			s.current = next
			s.mu.Unlock()
			m = next
			s.events.Push(Event{Kind: EventJoined, Name: s.cfg.User})
			break
		}
	}
}

// resumeOnce tries the resumption sub-protocol against every endpoint
// carrying the failed session's leader identity: the promoted standby
// assumes the primary's name (the members' long-term keys bind it), so only
// its address differs.
func (s *Session) resumeOnce(st core.SessionState) (*Member, error) {
	var lastErr error
	for _, ep := range s.cfg.Endpoints {
		if ep.Leader != st.Leader {
			continue
		}
		conn, err := ep.Dial()
		if err != nil {
			lastErr = err
			continue
		}
		m, err := Resume(conn, st, ep.LongTerm, Options{SilenceTimeout: s.cfg.SilenceTimeout})
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		return m, nil
	}
	if lastErr == nil {
		lastErr = errors.New("member: no endpoint matches the resumable leader")
	}
	return nil, lastErr
}

// jitterRNG is a tiny deterministic PRNG (splitmix64) seeded from the
// member's name: distinct members draw distinct jitter streams, one member's
// schedule reproduces run to run, and neither math/rand (banned in protocol
// packages) nor the clock is involved.
type jitterRNG uint64

func newJitterRNG(user string) *jitterRNG {
	// FNV-1a spreads the name over the seed space.
	h := uint64(14695981039346656037)
	for i := 0; i < len(user); i++ {
		h ^= uint64(user[i])
		h *= 1099511628211
	}
	r := jitterRNG(h)
	return &r
}

func (r *jitterRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9e9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// jittered spreads a delay uniformly over [d/2, d).
func (r *jitterRNG) jittered(d time.Duration) time.Duration {
	half := uint64(d) / 2
	if half == 0 {
		return d
	}
	return time.Duration(half + r.next()%half)
}

// pump forwards m's events until it closes; it returns the closure error
// (nil for a voluntary leave).
func (s *Session) pump(m *Member) error {
	for {
		ev, err := m.Next()
		if err != nil {
			return nil // drained after voluntary leave
		}
		if ev.Kind == EventClosed {
			return ev.Err
		}
		s.events.Push(ev)
	}
}

// Next blocks for the next event of the unified stream.
func (s *Session) Next() (Event, error) {
	ev, err := s.events.Pop()
	if err != nil {
		return Event{Kind: EventClosed}, ErrLeft
	}
	return ev, nil
}

// TryNext returns the next event without blocking.
func (s *Session) TryNext() (Event, bool) {
	return s.events.TryPop()
}

// SendData multicasts through the current session; while down it returns
// ErrDown so the application can buffer or drop.
func (s *Session) SendData(data []byte) error {
	s.mu.Lock()
	m := s.current
	s.mu.Unlock()
	if m == nil {
		return ErrDown
	}
	return m.SendData(data)
}

// Members returns the current view, or nil while down.
func (s *Session) Members() []string {
	s.mu.Lock()
	m := s.current
	s.mu.Unlock()
	if m == nil {
		return nil
	}
	return m.Members()
}

// Epoch returns the current group-key epoch, or zero while down.
func (s *Session) Epoch() uint64 {
	s.mu.Lock()
	m := s.current
	s.mu.Unlock()
	if m == nil {
		return 0
	}
	return m.Epoch()
}

// Up reports whether a leader is currently joined.
func (s *Session) Up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current != nil
}

// Close leaves the group (if joined) and stops the supervision loop,
// interrupting any in-progress rejoin backoff.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrLeft
	}
	s.closed = true
	close(s.closing)
	m := s.current
	s.mu.Unlock()

	var err error
	if m != nil {
		err = m.Leave()
	}
	<-s.done
	return err
}
