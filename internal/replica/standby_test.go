package replica

import (
	"sync/atomic"
	"testing"
	"time"

	"enclaves/internal/transport"
)

// newTestStandby starts a standby whose Dial hands out one end of a fresh
// pipe; peer receives the other end.
func newTestStandby(t *testing.T, silence time.Duration, peer func(transport.Conn)) (*Standby, *atomic.Int32) {
	t.Helper()
	var dials atomic.Int32
	s, err := NewStandby(StandbyConfig{
		Standby: "standby",
		Primary: "primary",
		Key:     newTestKey(t),
		Silence: silence,
		Dial: func() (transport.Conn, error) {
			dials.Add(1)
			a, b := transport.Pipe()
			peer(b)
			return a, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, &dials
}

// TestStandbySilenceSpansResubscriptions: a primary that accepts and
// drops every subscription never applies a snapshot, so the standby keeps
// redialling; the redials must not reset the silence budget, and the
// primary is declared dead at the budget measured from the start.
func TestStandbySilenceSpansResubscriptions(t *testing.T) {
	const silence = 200 * time.Millisecond
	start := time.Now()
	s, dials := newTestStandby(t, silence, func(c transport.Conn) { c.Close() })
	select {
	case <-s.Dead():
	case <-time.After(10 * silence):
		t.Fatalf("primary not declared dead after %v (%d dials)", 10*silence, dials.Load())
	}
	if got := time.Since(start); got < silence || got > 2*silence {
		t.Fatalf("declared dead after %v, want within [%v, %v]", got, silence, 2*silence)
	}
	if dials.Load() < 2 {
		t.Fatalf("%d dials: the standby never re-subscribed", dials.Load())
	}
	if s.Synced() {
		t.Fatal("Synced() without a snapshot")
	}
}

// TestStandbyStopIsNotDeath: stopping a standby before its budget runs
// out disarms the watch; the primary is never declared dead.
func TestStandbyStopIsNotDeath(t *testing.T) {
	const silence = 100 * time.Millisecond
	s, _ := newTestStandby(t, silence, func(transport.Conn) {}) // never answers
	time.Sleep(silence / 2)
	s.Stop()
	select {
	case <-s.Dead():
		t.Fatal("Stop declared the primary dead")
	case <-time.After(3 * silence):
	}
}
