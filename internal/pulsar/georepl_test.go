package pulsar

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/ledger"
)

// newSecondCluster builds an independent cluster (own brokers, bookies and
// metadata) on the same virtual clock — a second "region".
func newSecondCluster(e *env, brokers, bookies int) *Cluster {
	meta := coord.NewStore(e.v)
	ls := ledger.NewSystem(e.v, meta)
	for i := 0; i < bookies; i++ {
		ls.AddBookie(ledger.NewBookie(fmt.Sprintf("west-bookie-%d", i)))
	}
	cl := NewCluster(e.v, meta, ls, nil, ClusterConfig{Tenant: "west"})
	for i := 0; i < brokers; i++ {
		cl.AddBroker(fmt.Sprintf("west-broker-%d", i))
	}
	return cl
}

func TestGeoReplicationMirrorsMessages(t *testing.T) {
	e := newEnv(t, 2, 3)
	west := newSecondCluster(e, 2, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("events", 0))
		must(t, west.CreateTopic("events", 0))

		repl, err := StartReplicator(e.cluster, west, ReplicatorConfig{
			SrcTopic: "events", DstTopic: "events",
		})
		must(t, err)

		prod, _ := e.cluster.CreateProducer("events")
		for i := 0; i < 20; i++ {
			_, err := prod.SendKey(fmt.Sprintf("k%d", i%3), []byte(fmt.Sprintf("m%d", i)))
			must(t, err)
		}
		for i := 0; i < 1000 && repl.Replicated() < 20; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		repl.Stop()
		if repl.Replicated() != 20 {
			t.Fatalf("replicated = %d, want 20", repl.Replicated())
		}

		// The mirror preserves content and per-key order.
		cons, err := west.Subscribe("events", "check", Exclusive, Earliest)
		must(t, err)
		lastPerKey := map[string]int{}
		for i := 0; i < 20; i++ {
			m, ok := cons.Receive(time.Second)
			if !ok {
				t.Fatalf("mirror missing message %d", i)
			}
			var n int
			fmt.Sscanf(string(m.Payload), "m%d", &n)
			if last, seen := lastPerKey[m.Key]; seen && n <= last {
				t.Fatalf("key %s out of order in mirror: m%d after m%d", m.Key, n, last)
			}
			lastPerKey[m.Key] = n
			must(t, cons.Ack(m))
		}
	})
}

func TestGeoReplicationResumesFromDurableCursor(t *testing.T) {
	e := newEnv(t, 1, 3)
	west := newSecondCluster(e, 1, 3)
	e.v.Run(func() {
		must(t, e.cluster.CreateTopic("t", 0))
		must(t, west.CreateTopic("t", 0))
		prod, _ := e.cluster.CreateProducer("t")

		// First replicator run mirrors 5 messages, then stops.
		repl, err := StartReplicator(e.cluster, west, ReplicatorConfig{SrcTopic: "t", DstTopic: "t"})
		must(t, err)
		for i := 0; i < 5; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte(fmt.Sprintf("a%d", i))})
			must(t, err)
		}
		for i := 0; i < 1000 && repl.Replicated() < 5; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		repl.Stop()

		// Messages published while no replicator runs.
		for i := 0; i < 5; i++ {
			_, err := prod.Send(ProducerMessage{Payload: []byte(fmt.Sprintf("b%d", i))})
			must(t, err)
		}
		// A restarted replicator resumes at the durable cursor: only the
		// new messages flow; nothing duplicates.
		repl2, err := StartReplicator(e.cluster, west, ReplicatorConfig{SrcTopic: "t", DstTopic: "t"})
		must(t, err)
		for i := 0; i < 1000 && repl2.Replicated() < 5; i++ {
			e.v.Sleep(5 * time.Millisecond)
		}
		repl2.Stop()
		if repl2.Replicated() != 5 {
			t.Fatalf("resumed replicator mirrored %d, want 5", repl2.Replicated())
		}
		cons, err := west.Subscribe("t", "check", Exclusive, Earliest)
		must(t, err)
		var got []string
		for {
			m, ok := cons.TryReceive()
			if !ok {
				break
			}
			got = append(got, string(m.Payload))
		}
		if len(got) != 10 {
			t.Fatalf("mirror has %d messages, want 10 (no loss, no duplication): %v", len(got), got)
		}
	})
}
