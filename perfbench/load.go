package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// failedLatency stands for a failed flow's latency: beyond any limit.
const failedLatency = time.Duration(math.MaxInt64)

// inputs hands out successive flow indices of a workload's plan and
// counts every flow the run attempts.
type inputs struct {
	n                 atomic.Int64
	attempted, failed atomic.Int64
	// firstFailure prints the first failure for diagnosis.
	firstFailure sync.Once
}

func (g *inputs) next() int { return int(g.n.Add(1) - 1) }

// done records one finished flow.
func (g *inputs) done(err error) {
	g.attempted.Add(1)
	if err == nil {
		return
	}
	g.failed.Add(1)
	g.firstFailure.Do(func() { fmt.Fprintf(os.Stderr, "perfbench: flow failed: %v\n", err) })
}

// phase is the outcome of one load phase.
type phase struct {
	flows, failed int64
	elapsed       time.Duration
	// lat holds each flow's latency; in the open loop it runs from the
	// flow's due time, and a failed flow holds failedLatency.
	lat []time.Duration
	// lag holds how late the open-loop generator started each flow that
	// found a free connection.
	lag []time.Duration
}

// closedLoop runs sessions back to back, each on its own session, until
// d has passed.
func closedLoop(open func() *session, sessions int, d time.Duration, gen *inputs) phase {
	start := time.Now()
	deadline := start.Add(d)
	results := make([]phase, sessions)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(r *phase) {
			defer wg.Done()
			s := open()
			defer s.close()
			for time.Now().Before(deadline) {
				i := gen.next()
				t0 := time.Now()
				err := s.flow(i)
				lat := time.Since(t0)
				gen.done(err)
				r.flows++
				if err != nil {
					r.failed++
					lat = failedLatency
				}
				r.lat = append(r.lat, lat)
			}
		}(&results[w])
	}
	wg.Wait()
	return merge(results, time.Since(start))
}

// openLoop offers flows as seeded Poisson arrivals at rate flows/s for
// d, dispatched onto at most sessions connections. A flow is timed from
// when it was due, so a stall shows in the flows queued behind it.
// Flows still unstarted when the phase has overrun d by half are failed.
func openLoop(open func() *session, sessions int, rate float64, d time.Duration, rng *rand.Rand, gen *inputs) phase {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			break
		}
		due = append(due, t)
	}
	start := time.Now().Add(time.Millisecond)
	cutoff := start.Add(d + d/2)
	var claimed atomic.Int64
	results := make([]phase, sessions)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(r *phase) {
			defer wg.Done()
			c := newClock()
			defer c.close()
			s := open()
			defer s.close()
			for {
				free := time.Now()
				if free.After(cutoff) {
					return
				}
				k := claimed.Add(1) - 1
				if k >= int64(len(due)) {
					return
				}
				at := start.Add(due[k])
				if at.After(free) {
					c.waitUntil(at)
					free = at
				}
				r.lag = append(r.lag, time.Since(free))
				err := s.flow(gen.next())
				// The flow's latency runs from its due time, so it counts the
				// wait for a connection a slow flow still held and the
				// generator's own lateness, which the mediator's load on the
				// shared processors causes in part.
				lat := time.Since(at)
				gen.done(err)
				r.flows++
				if err != nil {
					r.failed++
					lat = failedLatency
				}
				r.lat = append(r.lat, lat)
			}
		}(&results[w])
	}
	wg.Wait()
	p := merge(results, time.Since(start))
	if unstarted := int64(len(due)) - p.flows; unstarted > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: open loop fell behind: %d flows never started\n", unstarted)
	}
	for n := p.flows; n < int64(len(due)); n++ {
		gen.attempted.Add(1)
		gen.failed.Add(1)
		p.flows++
		p.failed++
		p.lat = append(p.lat, failedLatency)
	}
	return p
}

// clock wakes a goroutine at a due time through a timerfd, a kernel
// timer with nanosecond resolution that the runtime's network poller
// watches. A goroutine waiting on it holds no processor, so the mediator
// keeps both while the generator waits, and it wakes as soon as the
// timer fires and a processor is free. Go's own timers wake through a
// millisecond-grained poller, and a goroutine asleep in a system call
// keeps its processor until the runtime's monitor takes it back.
type clock struct {
	fd uintptr
	f  *os.File
}

// newClock returns a clock; without a timerfd it falls back to Go's
// timers.
func newClock() *clock {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &clock{}
	}
	return &clock{fd: fd, f: os.NewFile(fd, "timerfd")}
}

// waitUntil returns at t.
func (c *clock) waitUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if c.f == nil {
		time.Sleep(d)
		return
	}
	// struct itimerspec: a zero interval, then the relative expiry.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, c.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := c.f.Read(expirations[:]); err != nil {
		time.Sleep(time.Until(t))
	}
}

func (c *clock) close() {
	if c.f != nil {
		c.f.Close()
	}
}

func merge(rs []phase, elapsed time.Duration) phase {
	p := phase{elapsed: elapsed}
	for _, r := range rs {
		p.flows += r.flows
		p.failed += r.failed
		p.lat = append(p.lat, r.lat...)
		p.lag = append(p.lag, r.lag...)
	}
	return p
}

// quantile returns the q-quantile of ds by nearest rank.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// us converts a duration to microseconds; a failed flow's latency
// becomes +Inf.
func us(d time.Duration) float64 {
	if d == failedLatency {
		return math.Inf(1)
	}
	return float64(d) / float64(time.Microsecond)
}
