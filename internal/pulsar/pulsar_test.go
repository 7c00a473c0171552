package pulsar

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/coord"
	"repro/internal/ledger"
	"repro/internal/simclock"
)

// env is a full Figure-1 deployment: brokers, bookies, coordination.
type env struct {
	v       *simclock.Virtual
	cluster *Cluster
	meter   *billing.Meter
	ledgers *ledger.System
}

func newEnv(t *testing.T, brokers, bookies int) *env {
	t.Helper()
	v := simclock.NewVirtual()
	t.Cleanup(v.Close)
	meta := coord.NewStore(v)
	ls := ledger.NewSystem(v, meta)
	for i := 0; i < bookies; i++ {
		ls.AddBookie(ledger.NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	meter := billing.NewMeter()
	cl := NewCluster(v, meta, ls, meter, ClusterConfig{})
	for i := 0; i < brokers; i++ {
		cl.AddBroker(fmt.Sprintf("broker-%d", i))
	}
	return &env{v: v, cluster: cl, meter: meter, ledgers: ls}
}

func TestProduceConsumeAck(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("events", 0))
		prod, err := e.cluster.CreateProducer("events")
		must(t, err)
		cons, err := e.cluster.Subscribe("events", "main", Exclusive, Earliest)
		must(t, err)
		for i := 0; i < 5; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte(fmt.Sprintf("m%d", i))})
			must(t, err)
		}
		for i := 0; i < 5; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("timed out waiting for message %d", i)
			}
			if string(m.Payload) != fmt.Sprintf("m%d", i) || m.Seq != int64(i) {
				t.Fatalf("message %d = %+v", i, m)
			}
			must(t, cons.Ack(m))
		}
		n, err := e.cluster.Backlog("events", "main")
		must(t, err)
		if n != 0 {
			t.Fatalf("backlog = %d after full ack", n)
		}
	})
}

func TestPublishIsMetered(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		for i := 0; i < 3; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte("x")})
			must(t, err)
		}
	})
	if got := e.meter.Units("pulsar", billing.ResMsgPublish); got != 3 {
		t.Fatalf("publishes metered = %v", got)
	}
}

func TestLatestSkipsBacklog(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		_, err := prod.Send(ProducerMessage{Payload: []byte("old")})
		must(t, err)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Latest)
		must(t, err)
		if m, ok := cons.Receive(10 * time.Millisecond); ok {
			t.Fatalf("Latest subscription got backlog message %q", m.Payload)
		}
		_, err = prod.Send(ProducerMessage{Payload: []byte("new")})
		must(t, err)
		m, ok := cons.Receive(time.Second)
		if !ok || string(m.Payload) != "new" {
			t.Fatalf("got %q ok=%v", m.Payload, ok)
		}
	})
}

func TestSharedRoundRobin(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("jobs", 0))
		c1, err := e.cluster.Subscribe("jobs", "workers", Shared, Earliest)
		must(t, err)
		c2, err := e.cluster.Subscribe("jobs", "workers", Shared, Earliest)
		must(t, err)
		prod, _ := e.cluster.CreateProducer("jobs")
		for i := 0; i < 10; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte{byte(i)}})
			must(t, err)
		}
		n1, n2 := drain(c1), drain(c2)
		if n1 != 5 || n2 != 5 {
			t.Fatalf("shared split = %d/%d, want 5/5", n1, n2)
		}
	})
}

func TestFailoverMode(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		c1, err := e.cluster.Subscribe("t", "s", Failover, Earliest)
		must(t, err)
		c2, err := e.cluster.Subscribe("t", "s", Failover, Earliest)
		must(t, err)
		prod, _ := e.cluster.CreateProducer("t")
		for i := 0; i < 4; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte{byte(i)}})
			must(t, err)
		}
		if n := drainAck(c1); n != 4 {
			t.Fatalf("active consumer got %d, want 4", n)
		}
		if n := drain(c2); n != 0 {
			t.Fatalf("standby consumer got %d, want 0", n)
		}
		// Active leaves; standby takes over.
		c1.Close()
		for i := 4; i < 8; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte{byte(i)}})
			must(t, err)
		}
		if n := drainAck(c2); n != 4 {
			t.Fatalf("failover consumer got %d, want 4", n)
		}
	})
}

func TestKeySharedStickiness(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		c1, err := e.cluster.Subscribe("t", "s", KeyShared, Earliest)
		must(t, err)
		c2, err := e.cluster.Subscribe("t", "s", KeyShared, Earliest)
		must(t, err)
		prod, _ := e.cluster.CreateProducer("t")
		for i := 0; i < 30; i++ {
			_, err := prod.SendKey(fmt.Sprintf("k%d", i%3), []byte("x"))
			must(t, err)
		}
		byConsumerKey := map[int]map[string]bool{1: {}, 2: {}}
		for {
			m, ok := c1.TryReceive()
			if !ok {
				break
			}
			byConsumerKey[1][m.Key] = true
		}
		for {
			m, ok := c2.TryReceive()
			if !ok {
				break
			}
			byConsumerKey[2][m.Key] = true
		}
		// No key may appear on both consumers.
		for k := range byConsumerKey[1] {
			if byConsumerKey[2][k] {
				t.Fatalf("key %q delivered to both consumers", k)
			}
		}
		if len(byConsumerKey[1])+len(byConsumerKey[2]) != 3 {
			t.Fatalf("keys seen = %v", byConsumerKey)
		}
	})
}

func TestExclusiveSecondConsumerRejected(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		_, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		if _, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest); !errors.Is(err, ErrExclusiveTaken) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestDurableCursorAcrossConsumerSessions(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		for i := 0; i < 3; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte(fmt.Sprintf("m%d", i))})
			must(t, err)
		}
		// Ack only the first two.
		for i := 0; i < 2; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatal("receive timeout")
			}
			must(t, cons.Ack(m))
		}
		cons.Close()

		cons2, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		m, ok := cons2.Receive(time.Second)
		if !ok || string(m.Payload) != "m2" {
			t.Fatalf("resumed at %q ok=%v, want m2", m.Payload, ok)
		}
	})
}

func TestPartitionedTopicKeyedOrdering(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("pt", 4))
		prod, err := e.cluster.CreateProducer("pt")
		must(t, err)
		// Per-key sequences must stay ordered despite partitioning.
		for i := 0; i < 12; i++ {
			_, err := prod.SendKey(fmt.Sprintf("k%d", i%3), []byte(fmt.Sprintf("%d", i/3)))
			must(t, err)
		}
		cons, err := e.cluster.Subscribe("pt", "s", Exclusive, Earliest)
		must(t, err)
		lastPerKey := map[string]int{}
		for i := 0; i < 12; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("timeout at %d", i)
			}
			var n int
			fmt.Sscanf(string(m.Payload), "%d", &n)
			if last, seen := lastPerKey[m.Key]; seen && n != last+1 {
				t.Fatalf("key %s out of order: %d after %d", m.Key, n, last)
			}
			lastPerKey[m.Key] = n
			must(t, cons.Ack(m))
		}
	})
}

func TestPartitionedRoundRobinSpread(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("pt", 3))
		prod, _ := e.cluster.CreateProducer("pt")
		for i := 0; i < 9; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte("x")})
			must(t, err)
		}
		cons, err := e.cluster.Subscribe("pt", "s", Exclusive, Earliest)
		must(t, err)
		perPartition := map[string]int{}
		for i := 0; i < 9; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatal("timeout")
			}
			perPartition[m.Topic]++
		}
		if len(perPartition) != 3 {
			t.Fatalf("partitions used = %v", perPartition)
		}
		for p, n := range perPartition {
			if n != 3 {
				t.Fatalf("partition %s got %d, want 3", p, n)
			}
		}
	})
}

func TestBrokerFailoverNoMessageLoss(t *testing.T) {
	e := newEnv(t, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		for i := 0; i < 5; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte(fmt.Sprintf("pre%d", i))})
			must(t, err)
		}
		// Consume and ack the first three.
		for i := 0; i < 3; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatal("timeout")
			}
			must(t, cons.Ack(m))
		}
		// Kill the owning broker.
		owner, _, err := e.cluster.ensureOwner("t")
		must(t, err)
		owner.SetDown(true)

		// Producing re-elects an owner (recovery fences + reopens ledgers).
		for i := 0; i < 5; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte(fmt.Sprintf("post%d", i))})
			must(t, err)
		}
		// Consumer re-attaches; everything unacked redelivers at least once.
		seen := map[int64][]byte{}
		for {
			m, ok := cons.Receive(50 * time.Millisecond)
			if !ok {
				break
			}
			seen[m.Seq] = m.Payload
			must(t, cons.Ack(m))
		}
		// Seqs 3..9 must all arrive (3,4 redelivered unacked + 5 new).
		for seq := int64(3); seq <= 9; seq++ {
			if _, ok := seen[seq]; !ok {
				t.Fatalf("message seq %d lost in failover; saw %v", seq, keysOf(seen))
			}
		}
		if string(seen[5]) != "post0" {
			t.Fatalf("seq 5 = %q, want post0", seen[5])
		}
	})
}

func TestBookieFailureToleratedByQuorum(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")
		_, err := prod.Send(ProducerMessage{Payload: []byte("before")})
		must(t, err)
		b, _ := e.ledgers.Bookie("bookie-0")
		b.SetDown(true)
		// WriteQuorum 2 / AckQuorum 2 over ensemble 3: entries whose write
		// set includes the dead bookie cannot reach ack quorum, so some
		// publishes fail — but acked data stays readable.
		okCount := 0
		for i := 0; i < 6; i++ {
			if _, err := prod.Send(ProducerMessage{Payload: []byte(fmt.Sprintf("m%d", i))}); err == nil {
				okCount++
			}
		}
		b.SetDown(false)
		cons, err := e.cluster.Subscribe("t", "s", Exclusive, Earliest)
		must(t, err)
		got := drainAck(cons)
		if got < okCount+1 {
			t.Fatalf("received %d, want at least %d acked messages", got, okCount+1)
		}
	})
}

func TestCreateTopicValidation(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		if err := e.cluster.CreateTopic("bad/name", 0); !errors.Is(err, ErrBadTopicName) {
			t.Errorf("err = %v", err)
		}
		must(t, e.cluster.CreateTopic("dup", 0))
		if err := e.cluster.CreateTopic("dup", 0); !errors.Is(err, ErrTopicExists) {
			t.Errorf("err = %v", err)
		}
		if _, err := e.cluster.CreateProducer("ghost"); !errors.Is(err, ErrNoTopic) {
			t.Errorf("err = %v", err)
		}
		if _, err := e.cluster.Subscribe("ghost", "s", Shared, Earliest); !errors.Is(err, ErrNoTopic) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestNoBrokersAvailable(t *testing.T) {
	e := newEnv(t, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		b, _ := e.cluster.Broker("broker-0")
		b.SetDown(true)
		prod, _ := e.cluster.CreateProducer("t")
		if _, err := prod.Send(ProducerMessage{Payload: []byte("x")}); !errors.Is(err, ErrNoBroker) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestSubModeString(t *testing.T) {
	for m, want := range map[SubMode]string{Exclusive: "exclusive", Shared: "shared", Failover: "failover", KeyShared: "key-shared", SubMode(99): "unknown"} {
		if m.String() != want {
			t.Fatalf("%d.String() = %s", m, m.String())
		}
	}
}

func drain(c *Consumer) int {
	n := 0
	for {
		if _, ok := c.TryReceive(); !ok {
			return n
		}
		n++
	}
}

func drainAck(c *Consumer) int {
	n := 0
	for {
		m, ok := c.TryReceive()
		if !ok {
			return n
		}
		_ = c.Ack(m)
		n++
	}
}

func keysOf(m map[int64][]byte) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
