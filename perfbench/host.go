package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/transport"
)

// The leader configuration every workload's daemon runs: enclaved's flag
// defaults (rekey on join and leave, heartbeat 2s, ack timeout 10s, outbox
// 1024, flat rekeying, no coalescing).
const (
	benchPassword  = "bench"
	heartbeat      = 2 * time.Second
	ackTimeout     = 10 * time.Second
	outboxLimit    = 1024
	joinTimeout    = 30 * time.Second
	joinsInFlight  = 64
	drainTimeout   = 5 * time.Second
	deliveryBudget = time.Second
)

func leaderConfig(gid string, users map[string]crypto.Key) group.Config {
	return group.Config{
		Name:        gid,
		Tenant:      gid,
		Users:       users,
		Rekey:       group.DefaultRekeyPolicy(),
		Liveness:    group.Liveness{HeartbeatInterval: heartbeat, AckTimeout: ackTimeout},
		OutboxLimit: outboxLimit,
	}
}

func userName(i int) string  { return "m" + strconv.Itoa(i) }
func groupName(i int) string { return "g" + strconv.Itoa(i) }

// deriveKeys derives every member's long-term key for every group, nproc
// at a time. The benchmark plays both the daemon reading its password file
// and every client, so each key is derived once and handed to both sides.
func deriveKeys(groups, members int) map[string]map[string]crypto.Key {
	keys := make(map[string]map[string]crypto.Key, groups)
	for g := 0; g < groups; g++ {
		keys[groupName(g)] = make(map[string]crypto.Key, members)
	}
	var mu sync.Mutex
	_ = parallel(groups*members, runtime.NumCPU(), func(i int) error {
		gid, u := groupName(i/members), userName(i%members)
		k := crypto.DeriveKey(u, gid, benchPassword)
		mu.Lock()
		keys[gid][u] = k
		mu.Unlock()
		return nil
	})
	return keys
}

// host is a self-hosted multi-tenant daemon (a group.Directory on a
// loopback listener) plus the client side's multiplexed connections to it.
type host struct {
	dir   *group.Directory
	keys  map[string]map[string]crypto.Key
	nl    net.Listener
	muxes []*transport.Mux
	serve sync.WaitGroup
}

// startHost serves groups g0..g(groups-1), each authorizing users
// m0..m(members-1), and dials conns multiplexed TCP connections to it.
func startHost(groups, members, conns int, tr *tracer) (*host, error) {
	keys := deriveKeys(groups, members)
	// Groups are created by their first join, as enclaveload does, so the
	// leaders' key derivations run in parallel instead of one by one.
	dir, err := group.NewDirectory(group.DirectoryConfig{
		NewConfig: func(g string) (group.Config, error) {
			users, ok := keys[g]
			if !ok {
				return group.Config{}, fmt.Errorf("unknown group %q", g)
			}
			return leaderConfig(g, users), nil
		},
		MaxDynamic: -1,
	})
	if err != nil {
		return nil, err
	}
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dir.Close()
		return nil, err
	}
	h := &host{dir: dir, keys: keys, nl: nl}
	h.serve.Add(1)
	go func() {
		defer h.serve.Done()
		_ = dir.Serve(tr.wrapListener(nl))
	}()
	for i := 0; i < conns; i++ {
		m, err := transport.DialMux(nl.Addr().String(), transport.MuxConfig{})
		if err != nil {
			h.close()
			return nil, fmt.Errorf("dial mux %d: %w", i, err)
		}
		h.muxes = append(h.muxes, m)
	}
	return h, nil
}

func (h *host) close() {
	for _, m := range h.muxes {
		m.Close()
	}
	h.nl.Close()
	h.dir.Close()
	h.serve.Wait()
}

// epoch reads a group's leader epoch through the directory.
func (h *host) epoch(gid string) uint64 {
	ld, err := h.dir.Lookup(gid)
	if err != nil {
		return 0
	}
	return ld.Epoch()
}

// join opens a stream for (gid, user) on mux, runs the authenticated join
// and waits until the member holds the group key.
func join(mx *transport.Mux, gid, user string, key crypto.Key, tr *tracer) (*member.Member, error) {
	c, err := mx.Open(gid)
	if err != nil {
		return nil, fmt.Errorf("open %s/%s: %w", gid, user, err)
	}
	c = tr.wrapConn(c)
	t0 := time.Now()
	m, err := member.JoinOpts(c, user, gid, key, member.Options{})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("join %s/%s: %w", gid, user, err)
	}
	t1 := time.Now()
	tr.bindMember(c, m)
	if err := m.WaitReady(joinTimeout); err != nil {
		m.Leave()
		return nil, fmt.Errorf("ready %s/%s: %w", gid, user, err)
	}
	tr.joined(t1.Sub(t0), time.Since(t1))
	return m, nil
}

// parallel runs f(0..n-1) with at most limit calls in flight and returns
// the first error.
func parallel(n, limit int, f func(i int) error) error {
	sem := make(chan struct{}, limit)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := f(i); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return first
}

// usage is the process's user+system CPU time and the heap bytes it has
// allocated so far.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func usageNow() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: cpuTime(), alloc: ms.TotalAlloc}
}

func (u usage) since(o usage) usage { return usage{cpu: u.cpu - o.cpu, alloc: u.alloc - o.alloc} }

// setPerOp records alloc_kib_per_op over ops operations.
func (r *run) setPerOp(u usage, ops float64) {
	r.set("alloc_kib_per_op", float64(u.alloc)/1024/ops, "KiB")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMiB reads the process's resident set size from /proc.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// waitFor polls cond every 10 ms until it holds or the timeout passes.
// Nothing measured is timed by the poll: latencies are stamped where the
// events happen, and the poll is kept coarse so that its own CPU stays out
// of the CPU per operation.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}
