package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rusage returns the process's user plus system CPU time.
func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTimes is the machine's CPU time from /proc/stat, in clock ticks.
type cpuTimes struct{ steal, total uint64 }

// readCPU returns the machine's CPU times; without /proc/stat it
// returns zeros, and every window then counts as quiet.
func readCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var c cpuTimes
	// cpu user nice system idle iowait irq softirq steal ...
	for i, f := range strings.Fields(line) {
		if i == 0 || i > 8 {
			continue
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// stealSince returns the share of the CPU time since c0 that the
// hypervisor gave to other guests.
func (c cpuTimes) stealSince(c0 cpuTimes) float64 {
	if c.total <= c0.total {
		return 0
	}
	return float64(c.steal-c0.steal) / float64(c.total-c0.total)
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEnv records where and how a run was made.
type runEnv struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Trace       int     `json:"trace"`
	OfferedRate float64 `json:"offered_rate_flows_per_s"`
	Sessions    int     `json:"client_connections"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	CPU         string  `json:"cpu_model"`
	Network     string  `json:"network"`
	LagP99US    float64 `json:"loadgen_lag_p99_us"`
	StealPct    float64 `json:"cpu_steal_pct"`
	// QuietWindows is how many open-loop windows the latency figures
	// come from, and OpenSamples how many flows they hold; each window
	// has at least ten beyond its p99.
	QuietWindows int      `json:"quiet_windows,omitempty"`
	OpenSamples  int      `json:"open_samples,omitempty"`
	Valid        bool     `json:"valid"`
	Invalid      []string `json:"invalid_reasons,omitempty"`
}

type report struct {
	env     runEnv
	res     result
	metrics map[string]metric
	order   []string
}

func environment(w *workload, seed int64, trace int) runEnv {
	env := runEnv{
		Workload: w.name, Seed: seed, Trace: trace, OfferedRate: w.rate, Sessions: sessions,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Network: "loopback", Valid: true,
	}
	if env.GOMAXPROCS > env.NProc {
		env.Valid = false
		env.Invalid = append(env.Invalid, fmt.Sprintf("GOMAXPROCS %d > nproc %d", env.GOMAXPROCS, env.NProc))
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (r *report) invalid(reason string) {
	r.env.Valid = false
	r.env.Invalid = append(r.env.Invalid, reason)
}

// checkLag records the open-loop generator's lag p99 and flags the run
// when it is half the latency p99 or more: the tail the run reports is
// then the generator's own lateness as much as the mediator's.
func (r *report) checkLag(lagP99, p99 float64) {
	r.env.LagP99US = lagP99
	if lagP99 >= p99/2 {
		r.invalid(fmt.Sprintf("open-loop generator lag p99 %.0f us >= half the latency p99 %.0f us", lagP99, p99))
	}
}

func (r *report) add(name string, v float64, unit string) {
	if math.IsInf(v, 1) {
		v = math.MaxFloat64 // a failed flow: beyond any limit
	}
	if math.IsNaN(v) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func (r *report) finish(gen *inputs) {
	r.res = result{
		Attempted: gen.attempted.Load(), Failed: gen.failed.Load(), Metrics: r.metrics,
	}
	r.res.Correct = r.res.Failed == 0
}

// write prints a readable table to stderr, then the environment line
// and the result line to stdout.
func (r *report) write(stdout, stderr io.Writer) error {
	fmt.Fprintf(stderr, "%s seed=%d trace=%d attempted=%d failed=%d valid=%v %s\n",
		r.env.Workload, r.env.Seed, r.env.Trace, r.res.Attempted, r.res.Failed, r.env.Valid,
		strings.Join(r.env.Invalid, "; "))
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(stderr, "  %-36s %14.3f %s\n", name, m.Value, m.Unit)
	}
	env, err := json.Marshal(map[string]runEnv{"environment": r.env})
	if err != nil {
		return err
	}
	res, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", env, res)
	return err
}
