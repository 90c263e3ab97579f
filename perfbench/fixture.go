package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"starlink/internal/automata"
	"starlink/internal/network"
	"starlink/starlink"
)

// exchangeTimeout bounds every client round trip of the load generator.
const exchangeTimeout = 10 * time.Second

// errWrongReply marks a reply that arrived but failed verification.
var errWrongReply = errors.New("wrong reply")

// fixture is one workload's seeded inputs plus its simulated service,
// running in this process on loopback. The mediator sees only the
// requests the fixture generated from the seed.
type fixture interface {
	// deploy builds the mediator's models and starts it on loopback;
	// tr, when non-nil, installs the traced run's wrappers.
	deploy(tr *tracer) (*deployment, error)
	// client opens a load-generator session against a mediator.
	client(addr string) *session
	// native opens a session that sends the same operations straight to
	// the simulated service in its own protocol.
	native() *session
	// requestsPerFlow is the number of client requests in one flow.
	requestsPerFlow() int
	// audit re-checks the service's state once load has stopped and
	// returns the number of flows it finds wrong.
	audit() int64
	close()
}

// deployment is one running mediator and the time its set-up took.
type deployment struct {
	med    *starlink.Mediator
	merged *automata.Merged
	// build covers model construction through NewMediator; start covers
	// Start.
	build, start time.Duration
}

// startMediator finishes a deployment whose model construction began at
// t0: it installs the tracer's wrappers when tr is non-nil, builds the
// mediator and starts it.
func startMediator(cfg starlink.EngineConfig, tr *tracer, t0 time.Time) (*deployment, error) {
	if tr != nil {
		server := cfg.ServerColor
		if server == 0 {
			server = cfg.Merged.Color1
		}
		for color, side := range cfg.Sides {
			side.Binder = tr.wrapBinder(color == server, side.Binder)
			if color != server {
				side.Dialer = tr.dial
			}
		}
		cfg.Observer = tr
	}
	med, err := starlink.NewMediator(cfg)
	if err != nil {
		return nil, fmt.Errorf("new mediator: %w", err)
	}
	built := time.Now()
	if err := med.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start mediator: %w", err)
	}
	return &deployment{med: med, merged: cfg.Merged, build: built.Sub(t0), start: time.Since(built)}, nil
}

// wire is one load-generator connection speaking a protocol's framing.
type wire struct {
	addr   string
	framer network.Framer
	conn   network.Conn
	// onConnect, when set, is told when each dial returns.
	onConnect func(time.Time)
	// onReply, when set, receives every raw reply.
	onReply func([]byte)
}

// roundTrip sends one request and reads its reply, dialling first when
// the connection is not open. Any error drops the connection.
func (w *wire) roundTrip(req []byte) ([]byte, error) {
	if w.conn == nil {
		c, err := net.DialTimeout("tcp", w.addr, exchangeTimeout)
		if err != nil {
			return nil, err
		}
		if w.onConnect != nil {
			w.onConnect(time.Now())
		}
		// Close with a reset: the churn workload opens thousands of
		// connections a second, and TIME_WAIT sockets left behind would
		// lengthen the kernel's connection lookups for later runs.
		if err := c.(*net.TCPConn).SetLinger(0); err != nil {
			c.Close()
			return nil, err
		}
		w.conn = network.NewStreamConn(c, w.framer)
	}
	if err := w.conn.SetDeadline(time.Now().Add(exchangeTimeout)); err != nil {
		w.drop()
		return nil, err
	}
	if err := w.conn.Send(req); err != nil {
		w.drop()
		return nil, err
	}
	data, err := w.conn.Recv()
	if err != nil {
		w.drop()
		return nil, err
	}
	if w.onReply != nil {
		w.onReply(data)
	}
	return data, nil
}

// drop closes the connection; the next round trip dials again.
func (w *wire) drop() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

// session runs flows of a workload's plan over one wire.
type session struct {
	w   *wire
	run func(w *wire, i int) error
}

// flow runs input i of the plan and verifies every reply.
func (s *session) flow(i int) error { return s.run(s.w, i) }

func (s *session) close() { s.w.drop() }

// setupTimes are the medians of repeated set-ups.
type setupTimes struct {
	total, build, start, firstFlow time.Duration
}

// setUp deploys the workload's mediator for d and at least n times,
// each time timing model construction through Start to the first
// verified flow, and keeps the last deployment running. Inputs come
// from gen.
func setUp(fx fixture, n int, d time.Duration, gen *inputs) (*deployment, setupTimes, error) {
	var totals, builds, starts, firsts []time.Duration
	var dep *deployment
	for stop := time.Now().Add(d); len(totals) < n || time.Now().Before(stop); {
		if dep != nil {
			dep.med.Close()
		}
		t0 := time.Now()
		d, err := fx.deploy(nil)
		if err != nil {
			return nil, setupTimes{}, err
		}
		dep = d
		t1 := time.Now()
		s := fx.client(dep.med.Addr())
		err = s.flow(gen.next())
		s.close()
		gen.done(err)
		if err != nil {
			dep.med.Close()
			return nil, setupTimes{}, fmt.Errorf("first flow: %w", err)
		}
		end := time.Now()
		totals = append(totals, end.Sub(t0))
		builds = append(builds, dep.build)
		starts = append(starts, dep.start)
		firsts = append(firsts, end.Sub(t1))
	}
	return dep, setupTimes{
		total: medianDuration(totals), build: medianDuration(builds),
		start: medianDuration(starts), firstFlow: medianDuration(firsts),
	}, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
