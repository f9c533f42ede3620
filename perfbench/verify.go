package main

import (
	"runtime"
	"time"

	"enclaves/internal/checker"
	"enclaves/internal/model"
)

// The verify workload: checker.RunOpts with cmd/verify's defaults, the
// paper's own evaluation. The checker, model and symbolic packages do all
// the work here and none anywhere else.
var (
	vfConfig = model.Config{MaxSessions: 2, MaxAdmin: 2}
	vfLegacy = model.LegacyConfig{MaxRekeys: 2}
)

const (
	vfSetupReps    = 2001
	vfLegacyAttack = 3 // attacks the legacy search must find
)

func runVerify(r *run) error {
	// Set-up is building the models; it is microseconds, so it is repeated
	// many times and the median reported.
	var setups []float64
	for i := 0; i < vfSetupReps; i++ {
		t0 := time.Now()
		for _, c := range []model.Config{vfConfig, {MaxSessions: 2, MaxAdmin: 2, Failover: true, LKH: true}, {MaxSessions: 2, MaxAdmin: 2, IntruderSessions: true}} {
			model.NewSystem(c).Initial()
		}
		model.NewLegacySystem(vfLegacy)
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), "s")
	workers := runtime.GOMAXPROCS(0)
	r.say("checker.RunOpts: base (%d,%d) model, failover+lkh and intruder-session ablations, legacy model (%d rekeys), workers %d",
		vfConfig.MaxSessions, vfConfig.MaxAdmin, vfLegacy.MaxRekeys, workers)

	if r.tr != nil {
		return r.tr.verify(r, workers)
	}
	var wall dist
	var used usage
	states := 0
	start := time.Now()
	for wall.n() == 0 || time.Since(start) < r.o.window {
		u0 := usageNow()
		t0 := time.Now()
		rep := checker.RunOpts(vfConfig, vfLegacy, checker.Options{Workers: workers})
		wall.addDur(time.Since(t0))
		u := usageNow().since(u0)
		used.cpu += u.cpu
		used.alloc += u.alloc
		states += rep.TotalStates() + rep.LegacyStates
		checkReport(r, rep)
		r.say("run %d: %v, %d states (+%d legacy), %.0f states/s, all hold %v",
			wall.n(), rep.Elapsed, rep.TotalStates(), rep.LegacyStates, rep.StatesPerSec(), rep.AllHold())
	}
	r.say("verify_s = %.4g s (n=%d runs)", wall.quantile(0.5)/1000, wall.n())
	r.set("latency_p50_ms", wall.quantile(0.5), "ms")
	r.say("cpu_us_per_state = %.4g us (n=%d states)", float64(used.cpu.Microseconds())/float64(states), states)
	r.setPerOp(used, float64(states))
	r.set("rss_mb", rssMiB(), "MiB")
	return nil
}

// checkReport requires every obligation PROVED and every legacy attack
// found; each obligation is one attempted verdict.
func checkReport(r *run, rep *checker.Report) {
	obligations := append([]checker.Obligation(nil), rep.Improved...)
	for _, e := range rep.Extensions {
		obligations = append(obligations, e.Obligations...)
	}
	obligations = append(obligations, rep.Legacy...)
	for _, o := range obligations {
		r.attempted++
		if !o.Holds {
			r.failed++
			r.v.fail("obligation %s (%s) does not hold: %s", o.ID, o.Name, o.Detail)
		}
	}
	if len(rep.Legacy) != vfLegacyAttack {
		r.v.fail("legacy search reported %d attacks, want %d", len(rep.Legacy), vfLegacyAttack)
	}
	if !rep.AllHold() {
		r.v.fail("verification failed")
	}
}
