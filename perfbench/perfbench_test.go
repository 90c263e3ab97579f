package main

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"starlink/internal/casestudy"
	"starlink/internal/message"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/testutil"
)

// replies runs the first n flows of a seed's plan against a fresh
// deployment, traced when tr is non-nil, and returns every raw reply.
func replies(t *testing.T, w *workload, tr *tracer, n int) [][]byte {
	t.Helper()
	fx, err := w.build(7)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	dep, err := fx.deploy(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.med.Close()
	s := fx.client(dep.med.Addr())
	defer s.close()
	var out [][]byte
	s.w.onReply = func(b []byte) { out = append(out, append([]byte(nil), b...)) }
	for i := 0; i < n; i++ {
		if err := s.flow(i); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	return out
}

func TestTracedRepliesMatchUntraced(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			plain := replies(t, w, nil, 40)
			traced := replies(t, w, newTracer(), 40)
			if len(plain) != len(traced) {
				t.Fatalf("%d untraced replies, %d traced", len(plain), len(traced))
			}
			for k := range plain {
				if !bytes.Equal(plain[k], traced[k]) {
					t.Fatalf("reply %d differs:\nuntraced %q\ntraced   %q", k, plain[k], traced[k])
				}
			}
		})
	}
}

// badRequest builds, for each workload, a well-framed request for an
// operation the mediator's automaton does not accept first, which the
// mediator answers with a protocol fault.
func badRequest(t *testing.T, name string) []byte {
	t.Helper()
	var req []byte
	var err error
	switch name {
	case "add-plus-giop":
		codec, cerr := giop.NewCodec()
		if cerr != nil {
			t.Fatal(cerr)
		}
		req, err = codec.Compose(giop.NewRequest(9, addObjectKey, "Sub",
			[]*message.Field{giop.IntParam(1), giop.IntParam(2)}))
	default:
		req, err = xmlrpcRequest(flickrPath, casestudy.FlickrGetInfo,
			map[string]xmlrpc.Value{"photo_id": photoID(1)})
	}
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestWrappedBinderKeepsProtocolFaults checks that the traced binder
// still offers ErrorReplier: the engine sends a fault only through it,
// so a traced mediator that lost it would answer with a closed
// connection instead of the untraced mediator's fault.
func TestWrappedBinderKeepsProtocolFaults(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			fault := func(tr *tracer) []byte {
				fx, err := w.build(7)
				if err != nil {
					t.Fatal(err)
				}
				defer fx.close()
				dep, err := fx.deploy(tr)
				if err != nil {
					t.Fatal(err)
				}
				defer dep.med.Close()
				s := fx.client(dep.med.Addr())
				defer s.close()
				reply, err := s.w.roundTrip(badRequest(t, w.name))
				if err != nil {
					t.Fatalf("no fault reply: %v", err)
				}
				return reply
			}
			plain, traced := fault(nil), fault(newTracer())
			if !bytes.Equal(plain, traced) {
				t.Fatalf("faults differ:\nuntraced %q\ntraced   %q", plain, traced)
			}
		})
	}
}

// maxSelfPct bounds the engine's self share of the traced flow time per
// workload, at about twice what the traced run measures.
var maxSelfPct = map[string]float64{
	"flickr-picasa-flow": 15,
	"add-plus-giop":      30,
	"search-cache-churn": 20,
}

// TestLayerAccounting runs a short traced measurement of each workload
// and checks its attribution. Engine self time is the flow time no child
// span covers, so the per-layer sum missing from the flow time only
// shows overlapping spans. Time the tracer misses shows in mediator
// spans that fall outside every flow and in the engine's self share,
// which a lost layer boundary would swell past its bound.
func TestLayerAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for seconds")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			r := &report{env: environment(w, 3, 1), metrics: map[string]metric{}}
			if err := layers(w, 3, 2*time.Second, r); err != nil {
				t.Fatal(err)
			}
			// Under the race detector the mediator cannot keep up with the
			// open loop's fixed rate, and the flows it never starts count as
			// failed.
			if !r.res.Correct && !testutil.RaceEnabled {
				t.Fatalf("%d of %d flows failed", r.res.Failed, r.res.Attempted)
			}
			if u := r.metrics["trace.unaccounted_pct"].Value; math.Abs(u) > 1 {
				t.Errorf("child spans overlap: unaccounted %.3f%% of flow time", u)
			}
			if o := r.metrics["trace.outside_pct"].Value; o > 1 {
				t.Errorf("mediator spans outside every flow: %.3f%% of flow time", o)
			}
			self := 100 * r.metrics["engine.self_us_per_flow"].Value / r.metrics["engine.flow_us"].Value
			t.Logf("engine self share %.1f%%, outside %.3f%% of flow time", self, r.metrics["trace.outside_pct"].Value)
			if self > maxSelfPct[w.name] {
				t.Errorf("engine self share %.1f%% of flow time, want <= %.0f%%", self, maxSelfPct[w.name])
			}
			for _, name := range []string{"engine.flow_us", "bind.parse_request_us_per_flow", "mtl.gamma_per_flow"} {
				if r.metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, r.metrics[name].Value)
				}
			}
		})
	}
}

func TestQuietWindows(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		// Clean windows are all kept.
		{[]float64{0, 0.004, 0.3, 0, 0.005, 0, 0, 0.01}, []int{0, 3, 5, 6, 1, 4}},
		// Too few clean windows: the quietest quarter, and at least three.
		{[]float64{0.2, 0.3, 0.05, 0.5, 0.02, 0.4, 0.1, 0.6}, []int{4, 2, 6}},
		{[]float64{0.2, 0, 0.3, 0.1, 0.05, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97, 0.99, 1, 1}, []int{1, 4, 3, 0}},
		// Ties with the last window kept are kept too.
		{[]float64{0.1, 0.2, 0.05, 0.2, 0.3}, []int{2, 0, 1, 3}},
	} {
		if got := quiet(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("quiet(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
