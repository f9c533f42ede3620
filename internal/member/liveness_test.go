package member

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/faultnet"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// TestSilenceTimeoutClosesMember: a leader that completes the join and then
// never sends again (no heartbeats configured) trips the member's silence
// watchdog, which closes the session with ErrLeaderSilent — distinguishable
// from a voluntary leave and from a transport failure.
func TestSilenceTimeoutClosesMember(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	startLeader(t, net, "primary", []string{"alice"}) // no Liveness: silent after join

	conn, err := net.Dial("primary")
	if err != nil {
		t.Fatal(err)
	}
	m, err := JoinOpts(conn, "alice", "primary", endpoint(net, "primary", "alice").LongTerm,
		Options{SilenceTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("no EventClosed before deadline")
		default:
		}
		ev, ok := m.TryNext()
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		if ev.Kind != EventClosed {
			continue
		}
		if !errors.Is(ev.Err, ErrLeaderSilent) {
			t.Fatalf("EventClosed.Err = %v, want ErrLeaderSilent", ev.Err)
		}
		return
	}
}

// TestSessionSilenceFailsOverToStandby: the leader stays connected but stops
// talking (here: a faultnet partition blackholes the link after the join).
// No transport error ever fires — only the silence watchdog can notice — and
// the Session must fail over to the standby endpoint on its own.
func TestSessionSilenceFailsOverToStandby(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	startLeader(t, net, "primary", []string{"alice"})
	standby := startLeader(t, net, "standby", []string{"alice"})

	var dials int32
	primary := endpoint(net, "primary", "alice")
	primary.Dial = func() (transport.Conn, error) {
		if atomic.AddInt32(&dials, 1) > 1 {
			// After the wedge the primary is treated as gone, so the
			// rejoin round falls through to the standby.
			return nil, errors.New("primary unreachable")
		}
		raw, err := net.Dial("primary")
		if err != nil {
			return nil, err
		}
		// The join completes cleanly, then the partition opens and never
		// closes: a wedged-but-connected leader.
		return faultnet.Wrap(raw, faultnet.Plan{
			Seed:       1,
			Partitions: []faultnet.Partition{{Start: 150 * time.Millisecond, Stop: time.Hour}},
		}), nil
	}

	s, err := NewSession(SessionConfig{
		User:           "alice",
		Endpoints:      []Endpoint{primary, endpoint(net, "standby", "alice")},
		Backoff:        10 * time.Millisecond,
		SilenceTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	go func() {
		for {
			if _, err := s.Next(); err != nil {
				return
			}
		}
	}()

	waitSession(t, "failover to the standby leader", func() bool {
		ms := standby.Members()
		return len(ms) == 1 && ms[0] == "alice"
	})
	waitSession(t, "session back up", s.Up)
}

// TestSessionCloseDuringBackoffReturnsPromptly: Close must interrupt the
// rejoin backoff wait instead of sleeping it out (the wait can reach 32x the
// base backoff).
func TestSessionCloseDuringBackoffReturnsPromptly(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	g := startLeader(t, net, "primary", []string{"alice"})

	s, err := NewSession(SessionConfig{
		User:      "alice",
		Endpoints: []Endpoint{endpoint(net, "primary", "alice")},
		Backoff:   2 * time.Second, // long enough that sleeping it out fails the test
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := s.Next(); err != nil {
				return
			}
		}
	}()

	// Kill the leader so supervise enters the backoff loop.
	g.Close()
	waitSession(t, "session down", func() bool { return !s.Up() })
	time.Sleep(50 * time.Millisecond) // let supervise reach the backoff wait

	start := time.Now()
	s.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %v, want prompt return from backoff wait", elapsed)
	}
}

// TestHandshakeBoundedBySilenceTimeout: a peer that accepts and never
// answers fails JoinOpts, and separately Resume, within about twice the
// SilenceTimeout. A peer that sends junk every budget/3 fails them too:
// handshake frames the engine rejects do not extend the bound.
func TestHandshakeBoundedBySilenceTimeout(t *testing.T) {
	const budget = 200 * time.Millisecond
	longTerm := crypto.DeriveKey(userName, leaderName, "pw")
	nonce, err := crypto.NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	st := core.SessionState{User: userName, Leader: leaderName, SessionKey: crypto.DeriveKey("k", "a", "s"), Nonce: nonce}
	handshakes := map[string]func(transport.Conn) (*Member, error){
		"join": func(c transport.Conn) (*Member, error) {
			return JoinOpts(c, userName, leaderName, longTerm, Options{SilenceTimeout: budget})
		},
		"resume": func(c transport.Conn) (*Member, error) {
			return Resume(c, st, longTerm, Options{SilenceTimeout: budget})
		},
	}
	for name, handshake := range handshakes {
		for _, junk := range []bool{false, true} {
			memberSide, peer := transport.Pipe()
			if junk {
				go func() {
					bogus := wire.Envelope{Type: wire.TypeAdminMsg, Sender: leaderName, Receiver: userName, Payload: []byte("junk")}
					for peer.Send(bogus) == nil {
						time.Sleep(budget / 3)
					}
				}()
			}
			start := time.Now()
			done := make(chan error, 1)
			go func() {
				m, err := handshake(memberSide)
				if err == nil {
					m.Leave()
				}
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * budget):
				err = errors.New("still waiting")
			}
			elapsed := time.Since(start)
			memberSide.Close()
			peer.Close()
			if err == nil {
				t.Fatalf("%s (junk=%v) succeeded against a peer that never answers", name, junk)
			}
			if elapsed < budget || elapsed > 2*budget {
				t.Fatalf("%s (junk=%v) failed after %v, want within [%v, %v]: %v", name, junk, elapsed, budget, 2*budget, err)
			}
		}
	}
}

// settledGoroutines polls runtime.NumGoroutine until it reads the same
// count five times in a row.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	last, same := -1, 0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		n := runtime.NumGoroutine()
		if n == last {
			if same++; same == 5 {
				return n
			}
		} else {
			last, same = n, 0
		}
	}
	t.Fatalf("goroutine count did not settle (last %d)", last)
	return 0
}

// TestSilenceWatchAddsNoGoroutine: the silence watch is a timer, not a
// goroutine, so a joined member costs the same goroutines with or without
// a SilenceTimeout.
func TestSilenceWatchAddsNoGoroutine(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	added := func(leader string, opts Options) int {
		startLeader(t, net, leader, []string{"alice"})
		before := settledGoroutines(t)
		conn, err := net.Dial(leader)
		if err != nil {
			t.Fatal(err)
		}
		m, err := JoinOpts(conn, "alice", leader, endpoint(net, leader, "alice").LongTerm, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Leave() })
		if err := m.WaitReady(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		return settledGoroutines(t) - before
	}
	plain := added("plain", Options{})
	watched := added("watched", Options{SilenceTimeout: time.Minute})
	if watched != plain {
		t.Fatalf("a member with SilenceTimeout adds %d goroutines, without it %d", watched, plain)
	}
}
