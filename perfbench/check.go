package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// payloadSize is the multicast payload of every workload.
const payloadSize = 128

// msgHdr is what a benchmark multicast carries in front of its filler: who
// sent it, its per-sender sequence number (from 1), when it was due, and
// which measurement phase scheduled it.
type msgHdr struct {
	Sender uint32
	Seq    uint64
	Sched  time.Duration // offset from the run's clock base
	Phase  uint8
}

const msgHdrLen = 21

// encodeMsg fills buf (payloadSize bytes) with h and a filler derived from
// (sender, seq), so a receiver can check the payload arrived intact.
func encodeMsg(buf []byte, h msgHdr) {
	binary.BigEndian.PutUint32(buf[0:], h.Sender)
	binary.BigEndian.PutUint64(buf[4:], h.Seq)
	binary.BigEndian.PutUint64(buf[12:], uint64(h.Sched))
	buf[20] = h.Phase
	for i := msgHdrLen; i < len(buf); i++ {
		buf[i] = filler(h, i)
	}
}

func filler(h msgHdr, i int) byte {
	return byte(h.Seq*7 + uint64(h.Sender)*13 + uint64(i))
}

// decodeMsg parses a received payload; ok is false when its length or
// filler shows it was altered.
func decodeMsg(b []byte) (h msgHdr, ok bool) {
	if len(b) != payloadSize {
		return h, false
	}
	h.Sender = binary.BigEndian.Uint32(b[0:])
	h.Seq = binary.BigEndian.Uint64(b[4:])
	h.Sched = time.Duration(binary.BigEndian.Uint64(b[12:]))
	h.Phase = b[20]
	for i := msgHdrLen; i < len(b); i++ {
		if b[i] != filler(h, i) {
			return h, false
		}
	}
	return h, true
}

// seqCheck is one receiver's view of every sender's stream. Per-sender
// FIFO delivery means each sender's sequence numbers arrive as a run of
// consecutive integers: a number at or below the last one seen is a
// duplicate or a late reordering, a jump is a drop or an early reordering.
//
// A drop is excused only when the member itself rejected as many frames
// (Member.Rejected, which counts multicasts sealed under an epoch it does
// not hold): that loss is the protocol's, it is reported through lost, and
// the run counts those sends as failed. Any other drop is a violation.
type seqCheck struct {
	last map[uint32]uint64
	// fromStart requires each sender's first message here to be seq 1 (the
	// receiver was present before anyone sent). allowGaps tolerates jumps:
	// failover loses what was in flight through a blackholed leader.
	fromStart, allowGaps bool
	// rejected is the receiver's rejected-frame count, refreshed by the
	// caller before each check; excused is how much of it drops used up.
	rejected, excused uint64
	lost              func(sender uint32, seq uint64)
}

func newSeqCheck(fromStart, allowGaps bool) *seqCheck {
	return &seqCheck{last: make(map[uint32]uint64), fromStart: fromStart, allowGaps: allowGaps}
}

// excuse accounts n dropped messages to rejected frames, if there are
// enough of them.
func (c *seqCheck) excuse(n uint64) bool {
	if c.excused+n > c.rejected {
		return false
	}
	c.excused += n
	return true
}

// observe records one delivery and returns a description of the violation
// it shows, or "".
func (c *seqCheck) observe(sender uint32, seq uint64) string {
	last, seen := c.last[sender]
	switch {
	case !seen && !c.fromStart:
	case seq <= last:
		return fmt.Sprintf("sender %d seq %d delivered after seq %d (duplicate or reordered)", sender, seq, last)
	case seq != last+1 && !c.allowGaps:
		if !c.excuse(seq - last - 1) {
			return fmt.Sprintf("sender %d seq %d delivered after seq %d (dropped or reordered)", sender, seq, last)
		}
		for s := last + 1; s < seq && c.lost != nil; s++ {
			c.lost(sender, s)
		}
	}
	c.last[sender] = seq
	return ""
}

// missing lists the senders whose last messages have not reached this
// receiver, given each sender's final sequence number. Once final (nothing
// is in flight any more) it first excuses what rejected frames account for.
func (c *seqCheck) missing(sent map[uint32]uint64, final bool) []string {
	var out []string
	short := uint64(0)
	for s, n := range sent {
		if c.last[s] < n {
			short += n - c.last[s]
			out = append(out, fmt.Sprintf("sender %d: last delivered seq %d of %d", s, c.last[s], n))
		}
	}
	if short == 0 || !final || !c.excuse(short) {
		return out
	}
	for s, n := range sent {
		for q := c.last[s] + 1; q <= n && c.lost != nil; q++ {
			c.lost(s, q)
		}
		c.last[s] = n
	}
	return nil
}

// epochWatch flags an epoch that moves backwards.
type epochWatch struct{ last uint64 }

func (w *epochWatch) observe(e uint64) string {
	if e < w.last {
		return fmt.Sprintf("epoch regressed %d -> %d", w.last, e)
	}
	w.last = e
	return ""
}

// verdict collects correctness violations from every goroutine of a run.
// Any violation makes the run exit non-zero without a result.
type verdict struct {
	mu      sync.Mutex
	n       int
	samples []string
}

func (v *verdict) fail(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.n++
	if len(v.samples) < 10 {
		v.samples = append(v.samples, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) check(what, problem string) {
	if problem != "" {
		v.fail("%s: %s", what, problem)
	}
}

func (v *verdict) count() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.n
}

func (v *verdict) err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.n == 0 {
		return nil
	}
	return fmt.Errorf("%d correctness violations, first: %v", v.n, v.samples)
}
