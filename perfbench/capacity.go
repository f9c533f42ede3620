package main

import "math"

// searchCapacity finds the highest offered rate at which pass holds, to a
// resolution of res (hi/lo <= 1+res). It probes start, grows by grow while
// steps pass (or shrinks while they fail) until it brackets the knee, then
// bisects geometrically. It gives up after maxSteps probes and returns the
// best passing rate found (0 if none passed) and the probes made.
func searchCapacity(start, grow, res float64, maxSteps int, pass func(rate float64) bool) (best float64, steps int) {
	lo, hi := 0.0, 0.0 // highest pass, lowest fail
	probe := func(r float64) bool {
		steps++
		ok := pass(r)
		if ok && r > lo {
			lo = r
		}
		if !ok && (hi == 0 || r < hi) {
			hi = r
		}
		return ok
	}
	r := start
	for steps < maxSteps && (lo == 0 || hi == 0) {
		if probe(r) {
			r *= grow
		} else {
			r /= grow
		}
	}
	for steps < maxSteps && lo > 0 && hi > 0 && hi/lo > 1+res {
		probe(math.Sqrt(lo * hi))
	}
	return lo, steps
}
