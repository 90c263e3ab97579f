package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/soap"
	"starlink/starlink"
)

const (
	addObjectKey = "calc"
	plusPath     = "/soap"
	addPlan      = 4096 // flow inputs, cycled
)

// addInput is one Add(x, y) flow and the sum its reply must carry.
type addInput struct {
	req    []byte // GIOP request to the mediator
	native []byte // the same operation as a SOAP Plus request
	id     uint64
	sum    string
}

type addFixture struct {
	svc  *soap.Server
	plan []addInput
}

func newAddPlus(seed int64) (fixture, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xadd))
	codec, err := giop.NewCodec()
	if err != nil {
		return nil, err
	}
	f := &addFixture{plan: make([]addInput, addPlan)}
	for k := range f.plan {
		x, y := rng.Int64N(2_000_001)-1_000_000, rng.Int64N(2_000_001)-1_000_000
		in := &f.plan[k]
		in.id = uint64(k + 1)
		in.sum = strconv.FormatInt(x+y, 10)
		in.req, err = codec.Compose(giop.NewRequest(in.id, addObjectKey, "Add",
			[]*message.Field{giop.IntParam(x), giop.IntParam(y)}))
		if err != nil {
			return nil, err
		}
		body, err := soap.MarshalRequest("Plus", []soap.Param{
			{Name: "x", Value: strconv.FormatInt(x, 10)}, {Name: "y", Value: strconv.FormatInt(y, 10)}})
		if err != nil {
			return nil, err
		}
		in.native = (&httpwire.Request{Method: "POST", Target: plusPath, Body: body, Headers: map[string]string{
			"Host": "plus", "Content-Type": "text/xml; charset=utf-8", "SOAPAction": `"Plus"`}}).Marshal()
	}
	svc, err := soap.NewServer("127.0.0.1:0", plusPath, map[string]soap.Operation{
		"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			if len(params) != 2 {
				return nil, &soap.Fault{Code: "Client", Message: "Plus takes x and y"}
			}
			x, errX := strconv.ParseInt(params[0].Value, 10, 64)
			y, errY := strconv.ParseInt(params[1].Value, 10, 64)
			if errX != nil || errY != nil {
				return nil, &soap.Fault{Code: "Client", Message: "operands must be integers"}
			}
			return []soap.Param{{Name: "result", Value: strconv.FormatInt(x+y, 10)}}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	f.svc = svc
	return f, nil
}

func (f *addFixture) deploy(tr *tracer) (*deployment, error) {
	t0 := time.Now()
	merged, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(),
		automata.MergeOptions{Equiv: casestudy.AddPlusEquivalence()})
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	gb, err := bind.NewGIOPBinder(addObjectKey, casestudy.AddUsage().Messages)
	if err != nil {
		return nil, err
	}
	return startMediator(starlink.EngineConfig{
		Merged: merged,
		Sides: map[int]*starlink.EngineSide{
			1: {Binder: gb},
			2: {Binder: &bind.SOAPBinder{Path: plusPath}, Target: f.svc.Addr()},
		},
	}, tr, t0)
}

func (f *addFixture) requestsPerFlow() int { return 1 }

func (f *addFixture) client(addr string) *session {
	// Each session decodes replies with a codec of its own.
	codec, codecErr := giop.NewCodec()
	return &session{w: &wire{addr: addr, framer: network.GIOPFramer{}}, run: func(w *wire, i int) error {
		if codecErr != nil {
			return codecErr
		}
		in := &f.plan[i%len(f.plan)]
		data, err := w.roundTrip(in.req)
		if err != nil {
			return err
		}
		return checkAddReply(codec, in, data)
	}}
}

// checkAddReply decodes a GIOP reply and checks it answers the request
// with x+y.
func checkAddReply(codec mdl.Codec, in *addInput, data []byte) error {
	reply, err := codec.Parse(data)
	if err != nil {
		return fmt.Errorf("%w: %v", errWrongReply, err)
	}
	id, _ := reply.GetInt("RequestID")
	status, _ := reply.GetInt("ReplyStatus")
	if reply.Name != "GIOPReply" || uint64(id) != in.id || status != giop.StatusNoException {
		return fmt.Errorf("%w: %s id %d status %d for request %d", errWrongReply, reply.Name, id, status, in.id)
	}
	params, err := reply.Lookup("ParameterArray")
	if err != nil || len(params.Children) != 1 || params.Children[0].ValueString() != in.sum {
		return fmt.Errorf("%w: reply parameters %v, want %s", errWrongReply, params, in.sum)
	}
	return nil
}

func (f *addFixture) native() *session {
	return &session{w: &wire{addr: f.svc.Addr(), framer: network.HTTPFramer{}}, run: func(w *wire, i int) error {
		in := &f.plan[i%len(f.plan)]
		data, err := w.roundTrip(in.native)
		if err != nil {
			return err
		}
		resp, err := httpwire.ParseResponse(data)
		if err != nil {
			return err
		}
		_, results, err := soap.ParseResponse(resp.Body)
		if err != nil || len(results) != 1 || results[0].Value != in.sum {
			return fmt.Errorf("%w: native Plus gave %v (%v), want %s", errWrongReply, results, err, in.sum)
		}
		return nil
	}}
}

func (f *addFixture) audit() int64 { return 0 }

func (f *addFixture) close() { f.svc.Close() }
