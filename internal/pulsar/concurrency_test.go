package pulsar

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/ledger"
	"repro/internal/simclock"
)

// newRealEnv builds a cluster on the real clock so tests can exercise true
// goroutine concurrency (the virtual clock serializes runnable goroutines).
func newRealEnv(t *testing.T, brokers, bookies int, cfg ClusterConfig) *Cluster {
	t.Helper()
	clk := simclock.Real{}
	meta := coord.NewStore(clk)
	ls := ledger.NewSystem(clk, meta)
	for i := 0; i < bookies; i++ {
		ls.AddBookie(ledger.NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	cl := NewCluster(clk, meta, ls, nil, cfg)
	for i := 0; i < brokers; i++ {
		cl.AddBroker(fmt.Sprintf("broker-%d", i))
	}
	return cl
}

// TestConcurrentPublishDistinctTopics drives many topics in parallel — the
// workload the per-topic broker locks exist for — and checks every Exclusive
// subscription still observes its topic's seqs in order, exactly once.
func TestConcurrentPublishDistinctTopics(t *testing.T) {
	cl := newRealEnv(t, 3, 3, ClusterConfig{})
	const topics = 6
	const msgs = 120
	var wg sync.WaitGroup
	errs := make(chan error, 2*topics)
	for i := 0; i < topics; i++ {
		topic := fmt.Sprintf("topic-%d", i)
		if err := cl.CreateTopic(topic, 0); err != nil {
			t.Fatal(err)
		}
		prod, err := cl.CreateProducer(topic)
		if err != nil {
			t.Fatal(err)
		}
		cons, err := cl.Subscribe(topic, "s", Exclusive, Earliest)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(topic string) {
			defer wg.Done()
			for j := 0; j < msgs; j++ {
				if _, err := prod.Send(ProducerMessage{Payload: []byte(fmt.Sprintf("%s/%d", topic, j))}); err != nil {
					errs <- fmt.Errorf("%s publish %d: %w", topic, j, err)
					return
				}
			}
		}(topic)
		go func(topic string) {
			defer wg.Done()
			for j := int64(0); j < msgs; j++ {
				m, ok := cons.Receive(10 * time.Second)
				if !ok {
					errs <- fmt.Errorf("%s: timed out at message %d", topic, j)
					return
				}
				if m.Seq != j {
					errs <- fmt.Errorf("%s: got seq %d, want %d (order violated)", topic, m.Seq, j)
					return
				}
				if err := cons.Ack(m); err != nil {
					errs <- fmt.Errorf("%s ack %d: %w", topic, j, err)
					return
				}
			}
		}(topic)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentKeySharedOrdering hammers one topic from several producers
// while three KeyShared consumers ack: per-key publish order must survive,
// and no seq may be delivered twice once acked.
func TestConcurrentKeySharedOrdering(t *testing.T) {
	cl := newRealEnv(t, 2, 3, ClusterConfig{})
	if err := cl.CreateTopic("shared", 0); err != nil {
		t.Fatal(err)
	}
	const producers = 4
	const perProducer = 100
	const consumers = 3
	total := int64(producers * perProducer)

	var consWg sync.WaitGroup
	var received int64
	var mu sync.Mutex
	seen := map[int64]int{} // seq → delivery count
	errs := make(chan error, producers+consumers)
	deadline := time.Now().Add(30 * time.Second)
	for c := 0; c < consumers; c++ {
		cons, err := cl.Subscribe("shared", "ks", KeyShared, Earliest)
		if err != nil {
			t.Fatal(err)
		}
		consWg.Add(1)
		go func(c int) {
			defer consWg.Done()
			lastVal := map[string]int{} // per-key counter must increase
			for atomic.LoadInt64(&received) < total {
				m, ok := cons.Receive(200 * time.Millisecond)
				if !ok {
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("consumer %d: deadline with %d/%d received", c, atomic.LoadInt64(&received), total)
						return
					}
					continue
				}
				var val int
				if _, err := fmt.Sscanf(string(m.Payload), "%d", &val); err != nil {
					errs <- fmt.Errorf("consumer %d: bad payload %q", c, m.Payload)
					return
				}
				if last, ok := lastVal[m.Key]; ok && val <= last {
					errs <- fmt.Errorf("consumer %d: key %s went %d → %d (per-key order violated)", c, m.Key, last, val)
					return
				}
				lastVal[m.Key] = val
				mu.Lock()
				seen[m.Seq]++
				dup := seen[m.Seq] > 1
				mu.Unlock()
				if dup {
					errs <- fmt.Errorf("consumer %d: seq %d delivered twice after ack", c, m.Seq)
					return
				}
				if err := cons.Ack(m); err != nil {
					errs <- fmt.Errorf("consumer %d ack: %w", c, err)
					return
				}
				atomic.AddInt64(&received, 1)
			}
		}(c)
	}

	var prodWg sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod, err := cl.CreateProducer("shared")
		if err != nil {
			t.Fatal(err)
		}
		prodWg.Add(1)
		go func(p int) {
			defer prodWg.Done()
			key := fmt.Sprintf("key-%d", p)
			for j := 1; j <= perProducer; j++ {
				if _, err := prod.SendKey(key, []byte(fmt.Sprintf("%d", j))); err != nil {
					errs <- fmt.Errorf("producer %d send %d: %w", p, j, err)
					return
				}
			}
		}(p)
	}
	prodWg.Wait()
	consWg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := atomic.LoadInt64(&received); got != total {
		t.Errorf("received %d messages, want %d", got, total)
	}
}

// TestConcurrentBatchedSendAsync checks the batching producer under
// concurrent SendAsync callers: after a final Flush every message is
// delivered exactly once, in seq order.
func TestConcurrentBatchedSendAsync(t *testing.T) {
	cl := newRealEnv(t, 2, 3, ClusterConfig{})
	if err := cl.CreateTopic("batched", 0); err != nil {
		t.Fatal(err)
	}
	prod, err := cl.CreateProducer("batched", ProducerOptions{MaxBatch: 16, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := cl.Subscribe("batched", "s", Exclusive, Earliest)
	if err != nil {
		t.Fatal(err)
	}
	const senders = 4
	const perSender = 64
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				if err := prod.SendAsync(ProducerMessage{Payload: []byte("m")}); err != nil {
					errs <- fmt.Errorf("sender %d: %w", s, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	for j := int64(0); j < senders*perSender; j++ {
		m, ok := cons.Receive(10 * time.Second)
		if !ok {
			t.Fatalf("timed out at message %d", j)
		}
		if m.Seq != j {
			t.Fatalf("got seq %d, want %d", m.Seq, j)
		}
		if err := cons.Ack(m); err != nil {
			t.Fatal(err)
		}
	}
	if m, ok := cons.TryReceive(); ok {
		t.Fatalf("unexpected extra message seq %d", m.Seq)
	}
}
