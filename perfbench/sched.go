package main

import (
	"math/rand"
	"sort"
	"time"
)

// arrival is one scheduled operation: at offset At from the phase start,
// act on slot Slot. Kind distinguishes the operations of a mixed schedule.
type arrival struct {
	At   time.Duration
	Slot int
	Kind uint8
}

// Arrival kinds.
const (
	opSend uint8 = iota
	opLeave
	opJoin
)

// poisson draws an open-loop Poisson arrival stream of the given aggregate
// rate (per second) over [0, span), each arrival on a slot drawn uniformly
// from slots. The stream depends only on rng's state, so a seed fixes it.
func poisson(rng *rand.Rand, rate float64, span time.Duration, slots []int, kind uint8) []arrival {
	if rate <= 0 || len(slots) == 0 {
		return nil
	}
	var out []arrival
	t := 0.0
	end := span.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= end {
			return out
		}
		out = append(out, arrival{At: time.Duration(t * float64(time.Second)), Slot: slots[rng.Intn(len(slots))], Kind: kind})
	}
}

// spacedN draws exactly n arrivals over [0, span), no two closer than
// gap: the order statistics of n uniform draws over the span less the dead
// time, the i-th shifted by i gaps. That is a Poisson stream conditioned
// on its count, so every seed offers the same number of operations. Churn
// uses it per group so that no two key rotations of one group land closer
// than gap apart.
func spacedN(rng *rand.Rand, n int, span, gap time.Duration, slots []int, kind uint8) []arrival {
	free := span - time.Duration(n)*gap
	if n <= 0 || free <= 0 || len(slots) == 0 {
		return nil
	}
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(free)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	out := make([]arrival, n)
	for i := range at {
		out[i] = arrival{At: at[i] + time.Duration(i)*gap, Slot: slots[rng.Intn(len(slots))], Kind: kind}
	}
	return out
}

// byTime merges arrival streams into one time-ordered schedule; ties keep
// stream order, so the merge is deterministic.
func byTime(streams ...[]arrival) []arrival {
	var all []arrival
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// partition splits slots 0..n-1 over g generators round-robin: generator k
// owns slots k, k+g, k+2g, ... Every operation on a slot is issued by its
// one owner, so per-slot order is the schedule's order.
func partition(n, g int) [][]int {
	out := make([][]int, g)
	for s := 0; s < n; s++ {
		out[s%g] = append(out[s%g], s)
	}
	return out
}
