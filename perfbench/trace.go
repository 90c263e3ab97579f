package main

import (
	"bufio"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/starlink"
)

// spanKind names the layer boundary a span was timed at.
type spanKind uint8

const (
	spParseRequest spanKind = iota // bind: client request -> abstract
	spBuildReply                   // bind: abstract -> client reply
	spBuildRequest                 // bind: abstract -> service request
	spParseReply                   // bind: service reply -> abstract
	spClientRead                   // network: framed read from the client
	spClientWrite                  // network: framed write to the client
	spServiceRead                  // network: framed read from the service
	spServiceWrite                 // network: framed write to the service
	spDial                         // network: service dial
	spGamma                        // mtl: one γ transition
	numSpanKinds
)

// span is one timed call into a layer, in nanoseconds since the
// tracer's base time.
type span struct {
	kind       spanKind
	start, end time.Duration
	bytes      int
}

// flowEvent is the part of an engine TraceEvent the analysis needs.
type flowEvent struct {
	kind          starlink.TraceKind
	at, elapsed   time.Duration
	session, flow uint64
	transition    string
}

// capturedCall is one binder call kept for the sequential replay. Its
// inputs are copies: the engine recycles packets and messages.
type capturedCall struct {
	b      bind.Binder
	kind   spanKind
	action string
	packet []byte
	abs    *message.Message
}

// tracer records spans around every call into the mediator's public
// layer boundaries: binders (bind), framers and dials (network), and
// engine trace events (engine, mtl, rcache). Spans stay in memory until
// the run ends.
type tracer struct {
	base      time.Time
	capturing atomic.Bool

	mu           sync.Mutex
	spans        []span
	events       []flowEvent
	binderErrors int64
	calls        []capturedCall
	// connects holds when each load-generator dial returned; firstReads
	// when the mediator began its first framed read on each new client
	// connection. Both are in order, so the k-th of each pair up.
	connects, firstReads []time.Duration
	// readers holds the most recent client connections' readers. A
	// session's last read can start after the next connection's first
	// one, so one entry is not enough; the generator never has more
	// than sessions connections open.
	readers  [64]*bufio.Reader
	nextSlot int
}

func newTracer() *tracer {
	return &tracer{base: time.Now()}
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.events, t.binderErrors = nil, nil, 0
	t.connects, t.firstReads = nil, nil
	t.readers, t.nextSlot = [64]*bufio.Reader{}, 0
}

func (t *tracer) record(kind spanKind, start time.Time, bytes int, err error) {
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, start: start.Sub(t.base), end: end.Sub(t.base), bytes: bytes})
	if err != nil {
		t.binderErrors++
	}
	t.mu.Unlock()
}

// ObserveTrace implements the engine's Observer interface.
func (t *tracer) ObserveTrace(ev starlink.TraceEvent) {
	switch ev.Kind {
	case starlink.TraceFlowStart, starlink.TraceFlowEnd, starlink.TraceTransition,
		starlink.TraceCacheHit, starlink.TraceError:
	default:
		return
	}
	t.mu.Lock()
	t.events = append(t.events, flowEvent{
		kind: ev.Kind, at: ev.Time.Sub(t.base), elapsed: ev.Elapsed,
		session: ev.Session, flow: ev.Flow, transition: ev.Transition,
	})
	t.mu.Unlock()
}

// noteConnect is the load generator's dial hook.
func (t *tracer) noteConnect(at time.Time) {
	t.mu.Lock()
	t.connects = append(t.connects, at.Sub(t.base))
	t.mu.Unlock()
}

// noteRead records the start of the mediator's first framed read on
// each new client connection.
func (t *tracer) noteRead(r *bufio.Reader, start time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, seen := range t.readers {
		if seen == r {
			return
		}
	}
	t.readers[t.nextSlot] = r
	t.nextSlot = (t.nextSlot + 1) % len(t.readers)
	t.firstReads = append(t.firstReads, start.Sub(t.base))
}

func (t *tracer) capture(b bind.Binder, kind spanKind, action string, packet []byte, abs *message.Message) {
	if !t.capturing.Load() {
		return
	}
	c := capturedCall{b: b, kind: kind, action: action}
	if packet != nil {
		c.packet = append([]byte(nil), packet...)
	}
	if abs != nil {
		c.abs = abs.Clone()
	}
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

func (t *tracer) wrapBinder(server bool, b bind.Binder) bind.Binder {
	tb := &tracedBinder{inner: b, t: t, framer: &tracedFramer{inner: b.Framer(), t: t, client: server}}
	if r, ok := b.(bind.ErrorReplier); ok {
		return &tracedErrorBinder{tracedBinder: tb, replier: r}
	}
	return tb
}

// dial opens a service connection the way the engine's default dialer
// does, and times it.
func (t *tracer) dial(sem network.Semantics, addr string, framer network.Framer) (network.Conn, error) {
	start := time.Now()
	conn, err := network.Engine{}.Dial(sem, addr, framer)
	t.record(spDial, start, 0, nil)
	return conn, err
}

// tracedBinder times the four Parse/Build calls of a binder.
type tracedBinder struct {
	inner  bind.Binder
	t      *tracer
	framer network.Framer
}

func (b *tracedBinder) ParseRequest(packet []byte) (string, *message.Message, error) {
	start := time.Now()
	action, abs, err := b.inner.ParseRequest(packet)
	b.t.record(spParseRequest, start, len(packet), err)
	b.t.capture(b.inner, spParseRequest, "", packet, nil)
	return action, abs, err
}

func (b *tracedBinder) BuildRequest(action string, abs *message.Message) ([]byte, error) {
	start := time.Now()
	data, err := b.inner.BuildRequest(action, abs)
	b.t.record(spBuildRequest, start, len(data), err)
	b.t.capture(b.inner, spBuildRequest, action, nil, abs)
	return data, err
}

func (b *tracedBinder) ParseReply(action string, packet []byte) (*message.Message, error) {
	start := time.Now()
	abs, err := b.inner.ParseReply(action, packet)
	b.t.record(spParseReply, start, len(packet), err)
	b.t.capture(b.inner, spParseReply, action, packet, nil)
	return abs, err
}

func (b *tracedBinder) BuildReply(action string, abs *message.Message) ([]byte, error) {
	start := time.Now()
	data, err := b.inner.BuildReply(action, abs)
	b.t.record(spBuildReply, start, len(data), err)
	b.t.capture(b.inner, spBuildReply, action, nil, abs)
	return data, err
}

func (b *tracedBinder) Framer() network.Framer { return b.framer }

// tracedErrorBinder keeps the wrapped binder's ErrorReplier capability,
// so mediation failures still reach the client as protocol faults.
type tracedErrorBinder struct {
	*tracedBinder
	replier bind.ErrorReplier
}

func (b *tracedErrorBinder) BuildErrorReply(action string, req *message.Message, errMsg string) ([]byte, error) {
	return b.replier.BuildErrorReply(action, req, errMsg)
}

// tracedFramer times framed reads and writes. On the client side it
// also notes the first read on each new connection.
type tracedFramer struct {
	inner  network.Framer
	t      *tracer
	client bool
}

func (f *tracedFramer) ReadMessage(r *bufio.Reader) ([]byte, error) {
	start := time.Now()
	kind := spServiceRead
	if f.client {
		kind = spClientRead
		f.t.noteRead(r, start)
	}
	data, err := f.inner.ReadMessage(r)
	if err == nil {
		f.t.record(kind, start, len(data), nil)
	}
	return data, err
}

func (f *tracedFramer) WriteMessage(w io.Writer, data []byte) error {
	start := time.Now()
	err := f.inner.WriteMessage(w, data)
	if err == nil {
		kind := spServiceWrite
		if f.client {
			kind = spClientWrite
		}
		f.t.record(kind, start, len(data), nil)
	}
	return err
}

// layerTimes is the traced run reduced to per-flow figures.
type layerTimes struct {
	flows int
	// sum holds each kind's total duration over the spans that fall
	// inside a flow; count and bytes cover every span of the kind.
	sum          [numSpanKinds]time.Duration
	count, bytes [numSpanKinds]int64
	flowTotal    time.Duration // Σ engine flow time
	selfTotal    time.Duration // Σ flow time not covered by child spans
	// outside is the time of the mediator's spans that lie in no flow.
	// The client read that waits for a flow's first request starts
	// before the flow and is left out; any other span outside a flow is
	// mediator work the per-flow figures miss.
	outside      time.Duration
	transitions  int64
	hitFlows     int
	hitTotal     time.Duration
	missTotal    time.Duration
	binderErrors int64
	accept       []time.Duration
}

// analyze attributes each span to the flow whose interval contains it.
// Traced flows run one at a time, so containment is exact; a span that
// straddles a flow boundary, such as the read that waits for the next
// flow's first request, belongs to no flow.
func (t *tracer) analyze(merged *automata.Merged) layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	gamma := map[string]bool{}
	for _, tr := range merged.Transitions {
		if tr.Kind == automata.KindGamma {
			gamma[tr.From+"->"+tr.To] = true
		}
	}
	type key struct{ session, flow uint64 }
	type flowSpan struct {
		start, end, elapsed time.Duration
		hit                 bool
		children            []span
	}
	var lt layerTimes
	started := map[key]time.Duration{}
	hits := map[key]bool{}
	var flows []*flowSpan
	spans := append([]span(nil), t.spans...)
	for _, ev := range t.events {
		k := key{ev.session, ev.flow}
		switch ev.kind {
		case starlink.TraceFlowStart:
			started[k] = ev.at
		case starlink.TraceCacheHit:
			hits[k] = true
		case starlink.TraceTransition:
			lt.transitions++
			if gamma[ev.transition] {
				spans = append(spans, span{kind: spGamma, start: ev.at - ev.elapsed, end: ev.at})
			}
		case starlink.TraceFlowEnd:
			if s, ok := started[k]; ok {
				flows = append(flows, &flowSpan{start: s, end: ev.at, elapsed: ev.elapsed, hit: hits[k]})
			}
		}
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].start < flows[j].start })
	for _, sp := range spans {
		lt.count[sp.kind]++
		lt.bytes[sp.kind] += int64(sp.bytes)
		i := sort.Search(len(flows), func(i int) bool { return flows[i].start > sp.start }) - 1
		if i < 0 || sp.end > flows[i].end {
			if sp.kind != spClientRead {
				lt.outside += sp.end - sp.start
			}
			continue
		}
		f := flows[i]
		f.children = append(f.children, sp)
		lt.sum[sp.kind] += sp.end - sp.start
	}
	for _, f := range flows {
		lt.flows++
		lt.flowTotal += f.elapsed
		lt.selfTotal += f.elapsed - covered(f.children, f.start, f.end)
		if f.hit {
			lt.hitFlows++
			lt.hitTotal += f.elapsed
		} else {
			lt.missTotal += f.elapsed
		}
	}
	lt.binderErrors = t.binderErrors
	for k := 0; k < len(t.connects) && k < len(t.firstReads); k++ {
		lt.accept = append(lt.accept, t.firstReads[k]-t.connects[k])
	}
	return lt
}

// covered returns how much of [from, to] the spans cover.
func covered(spans []span, from, to time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total time.Duration
	cur := from
	for _, sp := range spans {
		s, e := sp.start, sp.end
		if s < cur {
			s = cur
		}
		if e > to {
			e = to
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// replay runs the captured binder calls sequentially on the unwrapped
// binders and returns the time and the heap allocations one pass takes.
func replay(calls []capturedCall) (time.Duration, uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, c := range calls {
		// The calls succeeded when captured; the replay only measures.
		switch c.kind {
		case spParseRequest:
			_, _, _ = c.b.ParseRequest(c.packet)
		case spBuildRequest:
			_, _ = c.b.BuildRequest(c.action, c.abs)
		case spParseReply:
			_, _ = c.b.ParseReply(c.action, c.packet)
		case spBuildReply:
			_, _ = c.b.BuildReply(c.action, c.abs)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs
}
