package transport

import (
	"sync/atomic"
	"testing"
	"time"
)

// expiry records the calls of a watch's expire callback.
type expiry struct {
	calls atomic.Int32
	at    atomic.Int64 // UnixNano of the first call
}

func (e *expiry) fn() {
	if e.calls.Add(1) == 1 {
		e.at.Store(time.Now().UnixNano())
	}
}

// TestSilenceExpiresOnceAtBudget: with no touches, expire runs exactly
// once, at or after the budget.
func TestSilenceExpiresOnceAtBudget(t *testing.T) {
	const budget = 30 * time.Millisecond
	var e expiry
	start := time.Now()
	w := NewSilence(budget, e.fn)
	defer w.Stop()
	time.Sleep(5 * budget)
	if n := e.calls.Load(); n != 1 {
		t.Fatalf("expire ran %d times, want 1", n)
	}
	if got := time.Unix(0, e.at.Load()).Sub(start); got < budget {
		t.Fatalf("expired after %v, before the %v budget", got, budget)
	}
	if !w.Fired() {
		t.Fatal("Fired() = false after expiry")
	}
}

// TestSilenceRearmsForRestOfBudget: a touch moves the deadline to a whole
// budget after the touch, not after the watch was armed.
func TestSilenceRearmsForRestOfBudget(t *testing.T) {
	const budget = 40 * time.Millisecond
	var e expiry
	w := NewSilence(budget, e.fn)
	defer w.Stop()
	time.Sleep(budget / 2)
	touched := time.Now()
	w.Touch()
	time.Sleep(4 * budget)
	if n := e.calls.Load(); n != 1 {
		t.Fatalf("expire ran %d times, want 1", n)
	}
	if got := time.Unix(0, e.at.Load()).Sub(touched); got < budget {
		t.Fatalf("expired %v after the last touch, before the %v budget", got, budget)
	}
}

// TestSilenceTouchesKeepItArmed: touches every budget/3 for more than five
// budgets never fire the watch.
func TestSilenceTouchesKeepItArmed(t *testing.T) {
	const budget = 150 * time.Millisecond
	var e expiry
	w := NewSilence(budget, e.fn)
	defer w.Stop()
	var maxGap time.Duration
	last := time.Now()
	for end := last.Add(6 * budget); time.Now().Before(end); {
		time.Sleep(budget / 3)
		now := time.Now()
		w.Touch()
		maxGap = max(maxGap, now.Sub(last))
		last = now
	}
	if e.calls.Load() != 0 || w.Fired() {
		if maxGap >= budget {
			t.Skipf("scheduler delayed a touch by %v, past the %v budget", maxGap, budget)
		}
		t.Fatalf("watch fired with touches at most %v apart under a %v budget", maxGap, budget)
	}
}

// TestSilenceStopBeforeDeadline: a watch stopped before its deadline never
// calls expire.
func TestSilenceStopBeforeDeadline(t *testing.T) {
	const budget = 20 * time.Millisecond
	var e expiry
	w := NewSilence(budget, e.fn)
	w.Stop()
	w.Stop() // idempotent
	time.Sleep(4 * budget)
	if n := e.calls.Load(); n != 0 || w.Fired() {
		t.Fatalf("stopped watch fired: %d calls, Fired() = %v", n, w.Fired())
	}
}

// TestSilenceStopRacesFiring: Stop issued around the deadline, with and
// without a touch racing the re-arm, leaves exactly one outcome: expire ran
// once and Fired reports it, or expire never runs.
func TestSilenceStopRacesFiring(t *testing.T) {
	const budget = time.Millisecond
	for i := 0; i < 200; i++ {
		var e expiry
		w := NewSilence(budget, e.fn)
		time.Sleep(time.Duration(i%4) * budget / 2)
		if i%2 == 0 {
			w.Touch()
		}
		w.Stop()
		fired := w.Fired()
		time.Sleep(3 * budget)
		want := int32(0)
		if fired {
			want = 1
		}
		if n := e.calls.Load(); n != want || w.Fired() != fired {
			t.Fatalf("iteration %d: Fired() at Stop = %v, then %d expire calls and Fired() = %v",
				i, fired, n, w.Fired())
		}
	}
}

// TestSilenceDisabled: a budget <= 0 yields a nil watch whose methods do
// nothing.
func TestSilenceDisabled(t *testing.T) {
	var e expiry
	for _, budget := range []time.Duration{0, -time.Second} {
		w := NewSilence(budget, e.fn)
		if w != nil {
			t.Fatalf("NewSilence(%v) = %p, want nil", budget, w)
		}
		w.Touch()
		w.Stop()
		if w.Fired() {
			t.Fatal("nil watch reports Fired")
		}
	}
	time.Sleep(10 * time.Millisecond)
	if n := e.calls.Load(); n != 0 {
		t.Fatalf("disabled watch called expire %d times", n)
	}
}
