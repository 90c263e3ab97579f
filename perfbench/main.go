// Command perfbench is the repository's benchmark for mediated flows.
// Each run deploys one workload's mediator in this process through the
// public engine API, with the workload's simulated service beside it on
// loopback, drives it from a single load generator and verifies every
// reply. See README.md for the workloads, the load model and the
// metrics.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// instrumentation attached. With --trace 1 it prints the per-layer
// metrics of a separate traced run. The last line of standard output is
// the result object; the line before it records the run environment.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"time"
)

const (
	// sessions is the number of client connections the load generator
	// uses; it must not exceed the CPUs the run gets.
	sessions = 2
	// A run sets the mediator up again and again for setupTime, and at
	// least setupRepeats times; set-up figures are medians over them.
	// One set-up takes about a millisecond, so the repeats span many of
	// the hypervisor's scheduling slices.
	setupRepeats = 25
	setupTime    = time.Second
	// A run alternates between open-loop and closed-loop windows, as
	// many as give each open-loop window about windowFlows flows, within
	// [minWindows, maxWindows].
	windowFlows            = 1200
	minWindows, maxWindows = 5, 31
	// The metrics come from the windows in which other guests of the
	// machine took at most cleanSteal of the CPU time, or from the
	// quarter of the windows, and at least minQuiet, in which they took
	// the least.
	minQuiet   = 3
	cleanSteal = 0.005
	// replayFlows is how many traced flows' binder calls are captured for
	// the replay.
	replayFlows = 200
)

// workload is one benchmark workload.
type workload struct {
	name string
	// rate is the open-loop offered rate in flows/s: a quarter of the
	// closed-loop saturation rate on a quiet 2-vCPU machine, or two
	// fifths where a quarter gives too few windows of windowFlows.
	rate  float64
	build func(seed int64) (fixture, error)
}

var workloads = []workload{
	{name: "flickr-picasa-flow", rate: 1000, build: newFlickr},
	{name: "add-plus-giop", rate: 4000, build: newAddPlus},
	{name: "search-cache-churn", rate: 1200, build: newChurn},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", names())
		return 2
	}
	r := &report{env: environment(w, *seed, *trace), metrics: map[string]metric{}}
	measure := endToEnd
	if *trace == 1 {
		measure = layers
	}
	if err := measure(w, *seed, time.Duration(*seconds)*time.Second, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := r.write(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// endToEnd runs set-up, warm-up, an open-loop phase and a closed-loop
// phase with no instrumentation attached.
func endToEnd(w *workload, seed int64, d time.Duration, r *report) error {
	fx, err := w.build(seed)
	if err != nil {
		return err
	}
	defer fx.close()
	gen := &inputs{}
	dep, st, err := setUp(fx, setupRepeats, setupTime, gen)
	if err != nil {
		return err
	}
	defer dep.med.Close()
	open := func() *session { return fx.client(dep.med.Addr()) }
	closedLoop(open, sessions, warmup(d), gen)
	// The phases alternate in windows. Each metric is the median of its
	// values over the windows in which the hypervisor took the least CPU
	// time from this machine, so a burst of outside load moves no
	// result.
	rng := loadRNG(seed)
	openD, closedD := d*11/20, d*9/20
	// Each open-loop window offers about windowFlows flows, enough for
	// ten beyond its p99.
	windows := int(w.rate * openD.Seconds() / windowFlows)
	windows = max(minWindows, min(maxWindows, windows))
	var openSteal, closedSteal, p50, p99, lag, sat []float64
	var samples []int
	var flows, failed int64
	c0 := readCPU()
	for k := 0; k < windows; k++ {
		c1 := readCPU()
		op := openLoop(open, sessions, w.rate, openD/time.Duration(windows), rng, gen)
		c2 := readCPU()
		cl := closedLoop(open, sessions, closedD/time.Duration(windows), gen)
		c3 := readCPU()
		if n := len(op.lat); n < 1000 {
			r.invalid(fmt.Sprintf("open-loop window %d ran %d flows; p99 needs 1000", k, n))
		}
		openSteal = append(openSteal, c2.stealSince(c1))
		closedSteal = append(closedSteal, c3.stealSince(c2))
		p50 = append(p50, us(quantile(op.lat, 0.50)))
		p99 = append(p99, us(quantile(op.lat, 0.99)))
		lag = append(lag, us(quantile(op.lag, 0.99)))
		samples = append(samples, len(op.lat))
		sat = append(sat, float64(cl.flows-cl.failed)/cl.elapsed.Seconds())
		flows += op.flows + cl.flows
		failed += op.failed + cl.failed
	}
	r.env.StealPct = 100 * readCPU().stealSince(c0)
	quietOpen, quietClosed := quiet(openSteal), quiet(closedSteal)
	r.env.QuietWindows = len(quietOpen)
	if s := openSteal[quietOpen[len(quietOpen)-1]]; s > cleanSteal {
		r.invalid(fmt.Sprintf("other guests took %.1f%% of the CPU in the quietest windows", 100*s))
	}
	wrong := fx.audit()
	gen.failed.Add(wrong)

	for _, k := range quietOpen {
		r.env.OpenSamples += samples[k]
	}
	r.checkLag(median(pick(lag, quietOpen)), median(pick(p99, quietOpen)))
	r.add("open_p50_us", median(pick(p50, quietOpen)), "us")
	r.add("open_p99_us", median(pick(p99, quietOpen)), "us")
	r.add("sat_flows_per_s", median(pick(sat, quietClosed)), "1/s")
	r.add("verified_frac", 1-float64(failed+wrong)/float64(flows), "ratio")
	r.add("setup_s", st.total.Seconds(), "s")
	r.add("mem_peak_mb", peakRSSMB(), "MB")
	r.finish(gen)
	return nil
}

// layers measures the per-layer metrics. It deploys the workload twice:
// a plain mediator for the counter and open-loop phases and the
// untraced half of the overhead comparison, and a traced one whose
// binders, framers, dials and trace events are recorded.
func layers(w *workload, seed int64, d time.Duration, r *report) error {
	fx, err := w.build(seed)
	if err != nil {
		return err
	}
	defer fx.close()
	gen := &inputs{}
	plain, st, err := setUp(fx, setupRepeats, setupTime, gen)
	if err != nil {
		return err
	}
	defer plain.med.Close()
	tr := newTracer()
	traced, err := fx.deploy(tr)
	if err != nil {
		return err
	}
	defer traced.med.Close()
	openPlain := func() *session { return fx.client(plain.med.Addr()) }
	openTraced := func() *session {
		s := fx.client(traced.med.Addr())
		s.w.onConnect = tr.noteConnect
		return s
	}

	c0 := readCPU()
	// Capture binder calls for the replay while warming the traced
	// mediator; then warm the plain one.
	tr.capturing.Store(true)
	s := openTraced()
	for k := 0; k < replayFlows; k++ {
		gen.done(s.flow(gen.next()))
	}
	s.close()
	tr.capturing.Store(false)
	tr.mu.Lock()
	calls := tr.calls
	tr.mu.Unlock()
	closedLoop(openPlain, sessions, warmup(d), gen)

	// Counter phase: both sessions, counters read at its boundaries.
	st0, ru0, ms0 := plain.med.Stats(), rusage(), memStats()
	cp := closedLoop(openPlain, sessions, d*3/10, gen)
	st1, ru1, ms1 := plain.med.Stats(), rusage(), memStats()

	op := openLoop(openPlain, sessions, w.rate, d*3/20, loadRNG(seed), gen)
	r.checkLag(us(quantile(op.lag, 0.99)), us(quantile(op.lat, 0.99)))

	// Traced and untraced single-session loops in alternating chunks.
	tr.reset()
	var tracedLat, plainLat time.Duration
	var tracedN, plainN int64
	const chunks = 8
	for c := 0; c < chunks; c++ {
		open, lat, n := openTraced, &tracedLat, &tracedN
		if c%2 == 1 {
			open, lat, n = openPlain, &plainLat, &plainN
		}
		p := closedLoop(open, 1, d*2/5/chunks, gen)
		for _, l := range p.lat {
			if l != failedLatency {
				*lat += l
				*n++
			}
		}
	}
	lt := tr.analyze(traced.merged)
	np := closedLoop(fx.native, 1, d/10, gen)
	r.env.StealPct = 100 * readCPU().stealSince(c0)
	wrong := fx.audit()
	gen.failed.Add(wrong)

	var replayTimes []time.Duration
	var replayAllocs []uint64
	for k := 0; k < 5; k++ {
		el, allocs := replay(calls)
		replayTimes = append(replayTimes, el)
		replayAllocs = append(replayAllocs, allocs)
	}
	sort.Slice(replayAllocs, func(i, j int) bool { return replayAllocs[i] < replayAllocs[j] })

	f := float64(lt.flows)
	if lt.flows == 0 || cp.flows == 0 {
		return fmt.Errorf("no completed flows to attribute (traced %d, counted %d)", lt.flows, cp.flows)
	}
	perFlow := func(k spanKind) float64 { return usOf(lt.sum[k]) / f }
	bindUS := perFlow(spParseRequest) + perFlow(spBuildReply) + perFlow(spBuildRequest) + perFlow(spParseReply)
	var bindBytes int64
	for _, k := range []spanKind{spParseRequest, spBuildReply, spBuildRequest, spParseReply} {
		bindBytes += lt.bytes[k]
	}
	r.add("bind.parse_request_us_per_flow", perFlow(spParseRequest), "us")
	r.add("bind.build_reply_us_per_flow", perFlow(spBuildReply), "us")
	r.add("bind.build_request_us_per_flow", perFlow(spBuildRequest), "us")
	r.add("bind.parse_reply_us_per_flow", perFlow(spParseReply), "us")
	r.add("bind.bytes_per_flow", float64(bindBytes)/f, "bytes")
	r.add("bind.errors", float64(lt.binderErrors), "count")
	r.add("bind.replay_us_per_flow", usOf(medianDuration(replayTimes))/replayFlows, "us")
	r.add("bind.replay_allocs_per_flow", float64(replayAllocs[len(replayAllocs)/2])/replayFlows, "count")

	r.add("mtl.gamma_us_per_flow", perFlow(spGamma), "us")
	r.add("mtl.gamma_per_flow", float64(lt.count[spGamma])/f, "count")

	flowUS, selfUS := usOf(lt.flowTotal)/f, usOf(lt.selfTotal)/f
	r.add("engine.flow_us", flowUS, "us")
	r.add("engine.self_us_per_flow", selfUS, "us")
	r.add("engine.transitions_per_flow", float64(lt.transitions)/f, "count")
	r.add("engine.accept_us", usOf(medianOrZero(lt.accept)), "us")

	var messages int64
	for _, k := range []spanKind{spClientRead, spClientWrite, spServiceRead, spServiceWrite} {
		messages += lt.count[k]
	}
	networkUS := perFlow(spServiceRead) + perFlow(spClientWrite) + perFlow(spServiceWrite) + perFlow(spDial)
	r.add("network.service_wait_us_per_flow", perFlow(spServiceRead), "us")
	r.add("network.client_wait_us_per_flow", perFlow(spClientRead), "us")
	r.add("network.write_us_per_flow", perFlow(spClientWrite)+perFlow(spServiceWrite), "us")
	r.add("network.dial_us_per_flow", perFlow(spDial), "us")
	r.add("network.messages_per_flow", float64(messages)/f, "count")
	r.add("network.dials_per_flow", float64(lt.count[spDial]+int64(len(lt.accept)))/f, "count")

	r.add("pool.hit_ratio", ratio(st1.PoolHits-st0.PoolHits, st1.PoolHits-st0.PoolHits+st1.PoolDials-st0.PoolDials), "ratio")
	r.add("pool.wait_timeouts", float64(st1.PoolWaitTimeouts-st0.PoolWaitTimeouts), "count")

	cf := float64(cp.flows)
	hits, misses, coalesced := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses, st1.CacheCoalesced-st0.CacheCoalesced
	serviceIn := float64(st1.MessagesIn-st0.MessagesIn) - cf*float64(fx.requestsPerFlow())
	r.add("rcache.hit_ratio", ratio(hits, hits+misses+coalesced), "ratio")
	r.add("rcache.coalesced_per_kflow", 1000*float64(coalesced)/cf, "count")
	r.add("rcache.evictions_per_kflow", 1000*float64(st1.CacheEvictions-st0.CacheEvictions)/cf, "count")
	r.add("rcache.service_exchanges_per_flow", serviceIn/cf, "count")
	hitUS, missUS := 0.0, 0.0
	if lt.hitFlows > 0 {
		hitUS = usOf(lt.hitTotal) / float64(lt.hitFlows)
	}
	// Flows that hit no cache count as misses only where the cache is in
	// use at all.
	if hits+misses+coalesced > 0 && lt.flows > lt.hitFlows {
		missUS = usOf(lt.missTotal) / float64(lt.flows-lt.hitFlows)
	}
	r.add("rcache.hit_flow_us", hitUS, "us")
	r.add("rcache.miss_flow_us", missUS, "us")

	r.add("proc.cpu_us_per_flow", usOf(ru1-ru0)/cf, "us")
	r.add("proc.allocs_per_flow", float64(ms1.Mallocs-ms0.Mallocs)/cf, "count")
	r.add("proc.alloc_bytes_per_flow", float64(ms1.TotalAlloc-ms0.TotalAlloc)/cf, "bytes")
	r.add("proc.gc_per_kflow", 1000*float64(ms1.NumGC-ms0.NumGC)/cf, "count")

	r.add("setup.build_ms", msOf(st.build), "ms")
	r.add("setup.start_ms", msOf(st.start), "ms")
	r.add("setup.first_flow_ms", msOf(st.firstFlow), "ms")

	r.add("loadgen.lag_p99_us", r.env.LagP99US, "us")
	r.add("native.flow_us", meanUS(np.lat), "us")

	overhead := 0.0
	if tracedN > 0 && plainN > 0 {
		overhead = 100 * (float64(tracedLat)/float64(tracedN)/(float64(plainLat)/float64(plainN)) - 1)
	}
	r.add("trace.overhead_pct", overhead, "%")
	// Self time is what the child spans leave uncovered, so this sum
	// misses only where child spans overlap: it guards against double
	// counting. Time the tracer misses shows instead in the self share
	// and in the span time that falls outside every flow.
	accounted := selfUS + bindUS + perFlow(spGamma) + networkUS + perFlow(spClientRead)
	r.add("trace.unaccounted_pct", 100*(flowUS-accounted)/flowUS, "%")
	r.add("trace.outside_pct", 100*float64(lt.outside)/float64(lt.flowTotal), "%")
	r.finish(gen)
	return nil
}

// warmup is how long a run drives load before it measures.
func warmup(d time.Duration) time.Duration {
	return min(time.Second, d/10)
}

func loadRNG(seed int64) *rand.Rand { return rand.New(rand.NewPCG(uint64(seed), 0x10ad)) }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quiet returns the indices of the windows in which the hypervisor took
// at most cleanSteal of the CPU time or, when fewer than a quarter of
// the windows and minQuiet are that clean, of the quarter and at least
// minQuiet with the least steal.
func quiet(steal []float64) []int {
	idx := make([]int, len(steal))
	for k := range idx {
		idx[k] = k
	}
	sort.SliceStable(idx, func(i, j int) bool { return steal[idx[i]] < steal[idx[j]] })
	n := min(len(idx), max(minQuiet, len(idx)/4))
	limit := max(cleanSteal, steal[idx[n-1]])
	for n < len(idx) && steal[idx[n]] <= limit {
		n++
	}
	return idx[:n]
}

func pick(vs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = vs[i]
	}
	return out
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func medianOrZero(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return medianDuration(ds)
}

func meanUS(ds []time.Duration) float64 {
	var sum time.Duration
	var n int
	for _, d := range ds {
		if d != failedLatency {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return usOf(sum) / float64(n)
}
