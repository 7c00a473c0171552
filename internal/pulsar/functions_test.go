package pulsar

import (
	"fmt"
	"testing"
	"time"
)

func TestFunctionCountsEvents(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("events", 0))
		must(t, e.cluster.CreateTopic("counts", 0))

		// The Figure-3 pattern: a stateful function maintaining per-key
		// counters over a stream, publishing updated counts downstream.
		rf, err := e.cluster.StartFunction(FunctionConfig{
			Name:   "counter",
			Inputs: []string{"events"},
			Output: "counts",
		}, func(ctx *FnContext, m Message) ([]byte, error) {
			n := ctx.IncrCounter(m.Key, 1)
			return []byte(fmt.Sprintf("%s=%d", m.Key, n)), nil
		})
		must(t, err)

		prod, _ := e.cluster.CreateProducer("events")
		for i := 0; i < 9; i++ {
			_, err := prod.SendKey(fmt.Sprintf("k%d", i%3), nil)
			must(t, err)
		}
		out, err := e.cluster.Subscribe("counts", "check", Exclusive, Earliest)
		must(t, err)
		results := map[string]bool{}
		for i := 0; i < 9; i++ {
			m, ok := out.Receive(2 * time.Second)
			if !ok {
				t.Fatalf("timeout after %d results", i)
			}
			results[string(m.Payload)] = true
			must(t, out.Ack(m))
		}
		rf.Stop()
		// Each key must have reached count 3.
		for _, k := range []string{"k0", "k1", "k2"} {
			if !results[k+"=3"] {
				t.Errorf("missing final count for %s: %v", k, results)
			}
		}
		if rf.Processed() != 9 {
			t.Errorf("processed = %d, want 9", rf.Processed())
		}
		if ctr := (&FnContext{fn: rf}).Counter("k0"); ctr != 3 {
			t.Errorf("state counter k0 = %d", ctr)
		}
	})
}

func TestFunctionParallelInstancesShareWork(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("in", 0))
		rf, err := e.cluster.StartFunction(FunctionConfig{
			Name:      "sink",
			Inputs:    []string{"in"},
			Instances: 3,
		}, func(ctx *FnContext, m Message) ([]byte, error) {
			ctx.IncrCounter("total", 1)
			return nil, nil
		})
		must(t, err)
		prod, _ := e.cluster.CreateProducer("in")
		for i := 0; i < 30; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte("x")})
			must(t, err)
		}
		// Let instances drain.
		for i := 0; i < 200 && rf.Processed() < 30; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		rf.Stop()
		if rf.Processed() != 30 {
			t.Fatalf("processed = %d, want 30", rf.Processed())
		}
		snap := rf.StateSnapshot()
		if len(snap) != 1 {
			t.Fatalf("state = %v", snap)
		}
	})
}

func TestFunctionStateGetPut(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("in", 0))
		rf, err := e.cluster.StartFunction(FunctionConfig{
			Name:   "last-seen",
			Inputs: []string{"in"},
		}, func(ctx *FnContext, m Message) ([]byte, error) {
			prev := ctx.GetState("last")
			ctx.PutState("last", m.Payload)
			ctx.PutState("prev", prev)
			return nil, nil
		})
		must(t, err)
		prod, _ := e.cluster.CreateProducer("in")
		_, err = prod.Send(ProducerMessage{Payload: []byte("a")})
		must(t, err)
		_, err = prod.Send(ProducerMessage{Payload: []byte("b")})
		must(t, err)
		for i := 0; i < 200 && rf.Processed() < 2; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		rf.Stop()
		snap := rf.StateSnapshot()
		if string(snap["last"]) != "b" || string(snap["prev"]) != "a" {
			t.Fatalf("state = last:%q prev:%q", snap["last"], snap["prev"])
		}
	})
}

func TestFunctionPublishWithoutOutputErrors(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("in", 0))
		var gotErr error
		rf, err := e.cluster.StartFunction(FunctionConfig{
			Name:   "no-out",
			Inputs: []string{"in"},
		}, func(ctx *FnContext, m Message) ([]byte, error) {
			gotErr = ctx.Publish("k", []byte("x"))
			return nil, nil
		})
		must(t, err)
		prod, _ := e.cluster.CreateProducer("in")
		_, err = prod.Send(ProducerMessage{Payload: []byte("x")})
		must(t, err)
		for i := 0; i < 200 && rf.Processed() < 1; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		rf.Stop()
		if gotErr != ErrNoOutput {
			t.Fatalf("Publish err = %v, want ErrNoOutput", gotErr)
		}
	})
}

func TestFunctionRequiresInputs(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		if _, err := e.cluster.StartFunction(FunctionConfig{Name: "empty"}, nil); err == nil {
			t.Fatal("expected error for function with no inputs")
		}
	})
}

func TestFunctionTwoInputTopics(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("a", 0))
		must(t, e.cluster.CreateTopic("b", 0))
		rf, err := e.cluster.StartFunction(FunctionConfig{
			Name:   "merge",
			Inputs: []string{"a", "b"},
		}, func(ctx *FnContext, m Message) ([]byte, error) {
			ctx.IncrCounter("from-"+m.Topic, 1)
			return nil, nil
		})
		must(t, err)
		pa, _ := e.cluster.CreateProducer("a")
		pb, _ := e.cluster.CreateProducer("b")
		for i := 0; i < 3; i++ {
			_, err := pa.Send(ProducerMessage{Payload: []byte("x")})
			must(t, err)
			_, err = pb.Send(ProducerMessage{Payload: []byte("y")})
			must(t, err)
		}
		for i := 0; i < 200 && rf.Processed() < 6; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		rf.Stop()
		if rf.Processed() != 6 {
			t.Fatalf("processed = %d, want 6", rf.Processed())
		}
	})
}

func TestFunctionContextAccessorsAndErrors(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("in", 0))
		must(t, e.cluster.CreateTopic("out", 0))
		var sawName, sawPayload string
		rf, err := e.cluster.StartFunction(FunctionConfig{
			Name: "meta", Inputs: []string{"in"}, Output: "out",
		}, func(ctx *FnContext, m Message) ([]byte, error) {
			sawName = ctx.FunctionName()
			sawPayload = string(ctx.Message().Payload)
			if string(m.Payload) == "boom" {
				return nil, errString("handler error")
			}
			if err := ctx.Publish(m.Key, []byte("side-channel")); err != nil {
				return nil, err
			}
			return nil, nil
		})
		must(t, err)
		prod, _ := e.cluster.CreateProducer("in")
		_, err = prod.SendKey("k", []byte("ok"))
		must(t, err)
		_, err = prod.SendKey("k", []byte("boom"))
		must(t, err)
		for i := 0; i < 400 && rf.Processed() < 1; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		// Give the failing message a few redelivery attempts, then stop.
		e.v.Sleep(100 * time.Millisecond)
		rf.Stop()
		if sawName != "meta" {
			t.Errorf("FunctionName = %q", sawName)
		}
		if sawPayload == "" {
			t.Error("Message accessor returned nothing")
		}
		if rf.Errors() == 0 {
			t.Errorf("handler errors not counted")
		}
		if rf.Processed() < 1 {
			t.Errorf("processed = %d", rf.Processed())
		}
	})
}

type errString string

func (e errString) Error() string { return string(e) }
