package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// Silence is a receive-side liveness watch: it calls expire once when no
// Touch arrived for a whole budget, typically to close a connection whose
// peer went quiet (Section 3.1: messages can be lost or delayed). It holds
// one runtime timer and no goroutine. Touch is a single atomic store; the
// timer, when it fires and finds a recent touch, re-arms for the rest of
// the budget, so expiry lands one budget after the last touch.
//
// A nil *Silence is a disabled watch: every method is a no-op.
type Silence struct {
	budget time.Duration
	expire func()
	start  time.Time
	last   atomic.Int64 // time.Since(start) at the latest Touch
	state  atomic.Int32 // watchArmed, watchFired or watchStopped

	mu sync.Mutex // orders the timer's creation before its re-arms
	t  *time.Timer
}

const (
	watchArmed int32 = iota
	watchFired
	watchStopped
)

// NewSilence arms a watch that calls expire after budget without a Touch.
// It returns nil, a disabled watch, when budget <= 0.
func NewSilence(budget time.Duration, expire func()) *Silence {
	if budget <= 0 {
		return nil
	}
	s := &Silence{budget: budget, expire: expire, start: time.Now()}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.t = time.AfterFunc(budget, s.check)
	return s
}

// Touch records that something authentic arrived now.
func (s *Silence) Touch() {
	if s != nil {
		s.last.Store(int64(time.Since(s.start)))
	}
}

// check runs on the timer: re-arm for the rest of the budget after a recent
// touch, else expire, unless Stop won the race.
func (s *Silence) check() {
	if rest := s.budget - time.Since(s.start) + time.Duration(s.last.Load()); rest > 0 {
		s.mu.Lock()
		if s.state.Load() == watchArmed {
			s.t.Reset(rest)
		}
		s.mu.Unlock()
		return
	}
	if s.state.CompareAndSwap(watchArmed, watchFired) {
		s.expire()
	}
}

// Fired reports whether the watch expired.
func (s *Silence) Fired() bool { return s != nil && s.state.Load() == watchFired }

// Stop disarms the watch; after it returns, expire has either been called
// (Fired reports true) or never will be.
func (s *Silence) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.CompareAndSwap(watchArmed, watchStopped) {
		s.t.Stop()
	}
}
