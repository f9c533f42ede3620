package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

func schedule(seed int64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	return byTime(poisson(rng, 500, 2*time.Second, []int{0, 1, 2, 3}, opSend),
		spacedN(rng, 10, 2*time.Second, 100*time.Millisecond, []int{4, 5}, opLeave))
}

func TestScheduleFollowsSeed(t *testing.T) {
	a, b, c := schedule(1), schedule(1), schedule(2)
	if len(a) < 900 || len(a) > 1100 {
		t.Fatalf("%d arrivals, want about 1000 (rate 500/s over 2s) plus the churn stream", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule not time-ordered at %d", i)
		}
	}
}

func TestSpacedKeepsCountAndGap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := spacedN(rng, 50, 10*time.Second, 100*time.Millisecond, []int{0}, opLeave)
	if len(s) != 50 || s[0].At < 0 || s[49].At >= 10*time.Second {
		t.Fatalf("%d arrivals from %v to %v, want 50 within 10s", len(s), s[0].At, s[len(s)-1].At)
	}
	for i := 1; i < len(s); i++ {
		if s[i].At-s[i-1].At < 100*time.Millisecond {
			t.Fatalf("arrivals %d and %d only %v apart", i-1, i, s[i].At-s[i-1].At)
		}
	}
}

func TestPartitionOwnsEachSlotOnce(t *testing.T) {
	seen := map[int]int{}
	for k, slots := range partition(10, 3) {
		for _, s := range slots {
			if s%3 != k {
				t.Fatalf("slot %d owned by generator %d", s, k)
			}
			seen[s]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("%d slots owned, want 10", len(seen))
	}
}

func TestExactQuantiles(t *testing.T) {
	var d dist
	for i := 1000; i >= 1; i-- {
		d.add(float64(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
		past int
	}{{0.5, 500, 500}, {0.9, 900, 100}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("q%.3f = %v, want %v", c.q, got, c.want)
		}
		if got := d.beyond(c.q); got != c.past {
			t.Errorf("beyond q%.3f = %d, want %d", c.q, got, c.past)
		}
	}
	// The ten-beyond rule: p99 needs 1000 samples, p90 needs 100.
	small := dist{xs: make([]float64, 999)}
	if small.beyond(0.99) >= 10 {
		t.Error("999 samples should leave fewer than 10 beyond p99")
	}
	hundred := dist{xs: make([]float64, 100)}
	if hundred.beyond(0.9) != 10 {
		t.Errorf("100 samples leave %d beyond p90, want 10", hundred.beyond(0.9))
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}

// The capacity search on a synthetic curve: every rate up to the knee
// passes, every rate above fails.
func TestCapacitySearch(t *testing.T) {
	for _, knee := range []float64{300, 1000, 1234, 5000} {
		got, steps := searchCapacity(1000, capGrow, capRes, 20, func(r float64) bool { return r <= knee })
		if got > knee || got < knee/(1+capRes) {
			t.Errorf("knee %v: found %v (%d steps), want within %.0f%% below", knee, got, steps, capRes*100)
		}
	}
	if got, _ := searchCapacity(1000, capGrow, capRes, 6, func(float64) bool { return false }); got != 0 {
		t.Errorf("nothing passes but found %v", got)
	}
	if _, steps := searchCapacity(1000, capGrow, capRes, 4, func(float64) bool { return true }); steps != 4 {
		t.Errorf("search made %d probes, bound is 4", steps)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	buf := make([]byte, payloadSize)
	h := msgHdr{Sender: 7, Seq: 42, Sched: 1234567 * time.Nanosecond, Phase: 3}
	encodeMsg(buf, h)
	if got, ok := decodeMsg(buf); !ok || got != h {
		t.Fatalf("decoded %+v %v, want %+v", got, ok, h)
	}
	buf[100] ^= 1
	if _, ok := decodeMsg(buf); ok {
		t.Fatal("a flipped filler byte went unnoticed")
	}
	if _, ok := decodeMsg(buf[:64]); ok {
		t.Fatal("a truncated payload went unnoticed")
	}
}

// feed delivers seqs from sender 1 and returns the violations seen and
// the senders left incomplete, given the sender sent 1..5.
func feed(c *seqCheck, seqs ...uint64) (violations int, missing int) {
	for _, s := range seqs {
		if c.observe(1, s) != "" {
			violations++
		}
	}
	return violations, len(c.missing(map[uint32]uint64{1: 5}, true))
}

func TestSeqCheckCatchesDeliveryFaults(t *testing.T) {
	cases := []struct {
		name    string
		seqs    []uint64
		caught  bool
		fromSt  bool
		allowGp bool
	}{
		{"intact", []uint64{1, 2, 3, 4, 5}, false, true, false},
		{"dropped", []uint64{1, 2, 4, 5}, true, true, false},
		{"dropped last", []uint64{1, 2, 3, 4}, true, true, false},
		{"dropped first", []uint64{2, 3, 4, 5}, true, true, false},
		{"duplicated", []uint64{1, 2, 2, 3, 4, 5}, true, true, false},
		{"reordered", []uint64{1, 3, 2, 4, 5}, true, true, false},
		{"joined late", []uint64{3, 4, 5}, false, false, false},
		{"gap allowed", []uint64{1, 2, 4, 5}, false, true, true},
		{"duplicate despite gaps allowed", []uint64{1, 2, 2, 5}, true, true, true},
	}
	for _, c := range cases {
		v, m := feed(newSeqCheck(c.fromSt, c.allowGp), c.seqs...)
		if got := v > 0 || m > 0; got != c.caught {
			t.Errorf("%s: caught=%v (violations %d, missing %d), want %v", c.name, got, v, m, c.caught)
		}
	}
}

// A drop is excused only by a frame the receiver itself rejected, one
// rejection per message, and is reported as lost.
func TestSeqCheckExcusesOnlyRejectedFrames(t *testing.T) {
	var lost [][2]uint64
	c := newSeqCheck(true, false)
	c.lost = func(s uint32, q uint64) { lost = append(lost, [2]uint64{uint64(s), q}) }
	c.rejected = 1
	if v, m := feed(c, 1, 2, 4, 5); v != 0 || m != 0 {
		t.Fatalf("one drop with one rejected frame: violations %d, missing %d", v, m)
	}
	if len(lost) != 1 || lost[0] != [2]uint64{1, 3} {
		t.Fatalf("lost %v, want sender 1 seq 3", lost)
	}
	c = newSeqCheck(true, false)
	c.rejected = 1
	if v, _ := feed(c, 1, 4, 5); v == 0 {
		t.Fatal("two drops excused by one rejected frame")
	}
	c = newSeqCheck(true, false)
	c.rejected = 1
	if _, m := feed(c, 1, 2, 3, 4); m != 0 {
		t.Fatal("a rejected last message was not excused")
	}
	c = newSeqCheck(true, false)
	c.rejected = 1
	if c.observe(1, 1) != "" || len(c.missing(map[uint32]uint64{1: 2}, false)) == 0 {
		t.Fatal("a message still in flight was excused before the final check")
	}
}

func TestEpochWatch(t *testing.T) {
	var w epochWatch
	for _, e := range []uint64{1, 2, 2, 5} {
		if p := w.observe(e); p != "" {
			t.Fatalf("epoch %d: %s", e, p)
		}
	}
	if w.observe(4) == "" {
		t.Fatal("a regression from 5 to 4 went unnoticed")
	}
}

// BENCHMARK.json must name exactly the metrics the program reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list (%d vs %d entries)", len(b.PerLayer), len(perLayer))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads registered, program has %d", len(b.Workloads), len(workloads))
	}
}
