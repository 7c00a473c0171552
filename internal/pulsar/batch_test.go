package pulsar

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/obs"
)

// TestSendAsyncFlushesAtMaxBatch: messages stay buffered until the batch
// fills, then commit as one group with one PublishTime.
func TestSendAsyncFlushesAtMaxBatch(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t", ProducerOptions{MaxBatch: 3, FlushInterval: time.Hour})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		must(t, prod.SendAsync(ProducerMessage{Payload: []byte("a")}))
		must(t, prod.SendAsync(ProducerMessage{Payload: []byte("b")}))
		if _, ok := cons.TryReceive(); ok {
			t.Error("message delivered before the batch filled")
		}
		must(t, prod.SendAsync(ProducerMessage{Payload: []byte("c")})) // fills the batch
		for i, want := range []string{"a", "b", "c"} {
			m, ok := cons.Receive(time.Second)
			if !ok || string(m.Payload) != want || m.Seq != int64(i) {
				t.Errorf("message %d = (%+v, %v), want seq %d %q", i, m, ok, i, want)
			}
		}
	})
}

// TestSendAsyncFlushInterval: a SendAsync arriving after the staleness bound
// flushes even a non-full batch.
func TestSendAsyncFlushInterval(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t", ProducerOptions{MaxBatch: 100, FlushInterval: 5 * time.Millisecond})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		must(t, prod.SendAsync(ProducerMessage{Payload: []byte("a")}))
		e.v.Sleep(10 * time.Millisecond)
		must(t, prod.SendAsync(ProducerMessage{Payload: []byte("b")})) // stale batch → flush both
		for i, want := range []string{"a", "b"} {
			m, ok := cons.Receive(time.Second)
			if !ok || string(m.Payload) != want {
				t.Errorf("message %d = (%+v, %v), want %q", i, m, ok, want)
			}
		}
	})
}

// TestSendKeyFlushesBufferedFirst: a synchronous send never overtakes
// buffered async messages.
func TestSendKeyFlushesBufferedFirst(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t", ProducerOptions{MaxBatch: 100, FlushInterval: time.Hour})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		must(t, prod.SendAsync(ProducerMessage{Payload: []byte("async-0")}))
		must(t, prod.SendAsync(ProducerMessage{Payload: []byte("async-1")}))
		seq, err := prod.Send(ProducerMessage{Payload: []byte("sync")})
		must(t, err)
		if seq != 2 {
			t.Errorf("sync seq = %d, want 2 (after the buffered pair)", seq)
		}
		for i, want := range []string{"async-0", "async-1", "sync"} {
			m, ok := cons.Receive(time.Second)
			if !ok || string(m.Payload) != want || m.Seq != int64(i) {
				t.Errorf("message %d = (%+v, %v), want seq %d %q", i, m, ok, i, want)
			}
		}
	})
}

// TestBatchedPublishIsMeteredPerMessage: one group commit still bills one
// publish unit per message.
func TestBatchedPublishIsMeteredPerMessage(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t", ProducerOptions{MaxBatch: 4, FlushInterval: time.Hour})
		must(t, err)
		for i := 0; i < 4; i++ {
			must(t, prod.SendAsync(ProducerMessage{Payload: []byte("x")}))
		}
		must(t, prod.Flush())
	})
	if got := e.meter.Units("pulsar", billing.ResMsgPublish); got != 4 {
		t.Fatalf("metered %v publish units, want 4", got)
	}
}

// TestBatchedPartitionedPerKeyRouting: batches split per partition and keyed
// messages keep per-key order within their partition.
func TestBatchedPartitionedPerKeyRouting(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("pt", 4))
		prod, err := e.cluster.CreateProducer("pt", ProducerOptions{MaxBatch: 64, FlushInterval: time.Hour})
		must(t, err)
		cons, err := e.cluster.Subscribe("pt", "s", KeyShared, Earliest)
		must(t, err)
		const keys = 5
		const perKey = 6
		for j := 0; j < perKey; j++ {
			for k := 0; k < keys; k++ {
				must(t, prod.SendAsync(ProducerMessage{Key: fmt.Sprintf("key-%d", k), Payload: []byte(fmt.Sprintf("%d", j))}))
			}
		}
		must(t, prod.Flush())
		last := map[string]int{}
		for i := 0; i < keys*perKey; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Errorf("timed out at message %d", i)
				return
			}
			var val int
			fmt.Sscanf(string(m.Payload), "%d", &val)
			if prev, seen := last[m.Key]; seen && val <= prev {
				t.Errorf("key %s went %d → %d", m.Key, prev, val)
			}
			last[m.Key] = val
			must(t, cons.Ack(m))
		}
		if len(last) != keys {
			t.Errorf("saw %d keys, want %d", len(last), keys)
		}
	})
}

// TestTracedBatchedPublishSpans: a flushed batch whose first message is
// untraced records one "ledger.append" span, parented on the first *traced*
// message, and one "pulsar.deliver" per traced message, each parented on
// that message's own context; a batch records no "pulsar.publish" span.
// pulsar.publish.batch.size observes each flushed batch once and never a
// synchronous Send.
func TestTracedBatchedPublishSpans(t *testing.T) {
	e := newEnv(t, 1, 3)
	reg := obs.New(e.v)
	e.cluster.SetObs(reg)
	e.ledgers.SetObs(reg)
	tr := reg.Tracer()
	batchSize := reg.ValueHistogram("pulsar.publish.batch.size")
	const traced = 4
	var roots []obs.SpanRef
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, err := e.cluster.CreateProducer("t", ProducerOptions{MaxBatch: 100, FlushInterval: time.Hour})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		must(t, prod.SendAsync(ProducerMessage{Payload: []byte("untraced")}))
		for i := 0; i < traced; i++ {
			root := tr.Start(obs.TraceCtx{}, "req")
			roots = append(roots, root)
			must(t, prod.SendAsync(ProducerMessage{Key: fmt.Sprintf("k%d", i), Payload: []byte("x"), Trace: root.Ctx()}))
		}
		must(t, prod.Flush())
		if got := batchSize.Snapshot().Count; got != 1 {
			t.Errorf("batch-size observations after one flush = %d, want 1", got)
		}
		_, err = prod.Send(ProducerMessage{Payload: []byte("sync")})
		must(t, err)
		if got := batchSize.Snapshot().Count; got != 1 {
			t.Errorf("batch-size observations after a sync Send = %d, want still 1", got)
		}
		for i := 0; i < traced+2; i++ {
			if _, ok := cons.Receive(time.Second); !ok {
				t.Fatalf("message %d not delivered", i)
			}
		}
		for _, r := range roots {
			r.End()
		}
	})
	appends := 0
	for i, root := range roots {
		var delivers int
		for _, sd := range tr.TraceSpans(root.TraceID()) {
			switch sd.Name {
			case "ledger.append":
				appends++
				if i != 0 || sd.ParentID != root.Ctx().Span {
					t.Errorf("ledger.append in trace %d parented on %d, want the first traced message's span %d",
						i, sd.ParentID, roots[0].Ctx().Span)
				}
			case "pulsar.deliver":
				delivers++
				if sd.ParentID != root.Ctx().Span {
					t.Errorf("trace %d: pulsar.deliver parented on %d, want %d", i, sd.ParentID, root.Ctx().Span)
				}
			case "req":
			default:
				t.Errorf("trace %d: unexpected span %q", i, sd.Name)
			}
		}
		if delivers != 1 {
			t.Errorf("trace %d: %d pulsar.deliver spans, want 1", i, delivers)
		}
	}
	if appends != 1 {
		t.Errorf("%d ledger.append spans across the batch, want 1", appends)
	}
}
