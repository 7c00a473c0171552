package pulsar

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/ledger"
	"repro/internal/obs"
)

// Errors returned by the messaging layer.
var (
	ErrNoTopic        = errors.New("pulsar: topic does not exist")
	ErrTopicExists    = errors.New("pulsar: topic already exists")
	ErrBrokerDown     = errors.New("pulsar: broker is down")
	ErrExclusiveTaken = errors.New("pulsar: exclusive subscription already has a consumer")
	ErrNoBroker       = errors.New("pulsar: no live broker available")
	ErrBadTopicName   = errors.New("pulsar: invalid topic name")
	ErrConsumerClosed = errors.New("pulsar: consumer is closed")
	ErrPublishDropped = errors.New("pulsar: publish dropped")
	// ErrRouteMoved fences a keyed publish whose key hash falls outside the
	// partition's accepted range — the partition split after the sender
	// routed. The sender re-resolves routing and republishes to the child;
	// the fence is what makes a split safe under concurrent traffic (a
	// stale route can only produce this error, never an out-of-order
	// append).
	ErrRouteMoved = errors.New("pulsar: key range moved")
)

// consumerReg is a consumer's registration on a broker-side subscription.
type consumerReg struct {
	id    int64
	inbox *inbox
}

// subscription is the broker-side durable cursor plus attached consumers.
type subscription struct {
	topicName string
	name      string
	mode      SubMode

	ackedPrefix  int64           // every seq < ackedPrefix is acked
	acks         map[int64]bool  // out-of-order acks beyond the prefix
	pending      map[int64]int64 // delivered unacked: seq → consumer id
	redeliver    []int64         // seqs queued for redelivery
	nextDispatch int64           // next fresh seq to dispatch
	consumers    []*consumerReg
	rr           int // round-robin pointer for Shared
	// dropAcks makes the next N acks vanish in flight: the consumer's Ack
	// returns success but the cursor does not move, so the message is still
	// unacked broker-side — the lost-ack fault behind duplicate delivery
	// (see Cluster.DropAcks / RedeliverUnacked).
	dropAcks int

	// backlogGauge tracks this subscription's unacked message count. Resolved
	// once at subscription creation; nil (no-op) when observability is off.
	backlogGauge *obs.Gauge
}

// updateBacklogLocked refreshes the subscription's backlog gauge. Called with
// the topic's lock held; a single atomic store when observability is on.
func (sub *subscription) updateBacklogLocked(ts *topicState) {
	sub.backlogGauge.Set(float64(ts.nextSeq - sub.ackedPrefix - int64(len(sub.acks))))
}

type ledgerRange struct {
	ID       int64 `json:"id"`
	StartSeq int64 `json:"start_seq"`
}

// topicState is a broker's in-memory state for a topic it owns. Each topic
// carries its own lock, so publishes and dispatches on distinct topics never
// contend: Broker.mu only guards the topic table itself.
type topicState struct {
	// pubMsgs/pubBytes count publishes since this broker loaded the topic.
	// Atomics (though written under ts.mu) so the load manager samples
	// them without touching the topic lock. First for 64-bit alignment.
	pubMsgs  int64
	pubBytes int64
	// keyLo/keyHi is the partition's accepted key-hash range (read from
	// topic metadata at load, narrowed in place by a split). keyHi == 0
	// means unranged: any key is accepted (plain topics). Atomics so a
	// publisher can fail fast on a misrouted key before reserving modeled
	// service capacity; the authoritative check still runs under ts.mu,
	// where the range also narrows, so an append either fully precedes a
	// split's fence or bounces — never lands out of range.
	keyLo, keyHi uint64

	name string

	mu      sync.Mutex
	writer  *ledger.Writer
	ranges  []ledgerRange
	cache   []Message // all messages, indexed by seq
	nextSeq int64
	subs    map[string]*subscription
}

// Broker is the stateless message-serving component of Figure 1: it
// receives, stores (via the ledger layer) and dispatches messages for the
// topics whose ownership it holds in the coordination service.
//
// Locking: Broker.mu (an RWMutex) protects the topic table and the down
// flag; per-topic state is under topicState.mu. Data-plane operations take
// Broker.mu read-locked for their duration plus the one topic's lock, so
// traffic on different topics proceeds concurrently while SetDown/loadTopic
// (write-lockers) still see a quiescent broker.
type Broker struct {
	ID      string
	cluster *Cluster
	session coord.SessionID

	mu     sync.RWMutex
	topics map[string]*topicState
	down   bool

	// Chaos hooks: slow adds latency to every publish; dropNext fails the
	// next N publishes before the durable append (so nothing is ever acked
	// and then lost). Both atomics — no lock on the hot path.
	slow     int64
	dropNext int64

	// Capacity model (ClusterConfig.ServiceTime): svcNs is the per-message
	// service time, busyUntil the virtual-time instant the broker's FIFO
	// server frees up. Publishers CAS-reserve their service window and
	// sleep until it ends — before any lock, so a queued publisher never
	// stalls the virtual clock or other topics. Zero svcNs disables both.
	svcNs     int64
	busyUntil int64
}

// admitService reserves n messages of modeled service capacity and waits
// (in virtual time) until the reservation completes. FIFO by reservation
// order: the broker serves one message per ServiceTime, so saturated
// throughput is 1/ServiceTime per broker and adding brokers adds capacity.
func (b *Broker) admitService(n int) {
	svc := atomic.LoadInt64(&b.svcNs)
	if svc <= 0 || n <= 0 {
		return
	}
	cost := svc * int64(n)
	now := b.cluster.clock.Now().UnixNano()
	for {
		cur := atomic.LoadInt64(&b.busyUntil)
		start := cur
		if start < now {
			start = now
		}
		end := start + cost
		if atomic.CompareAndSwapInt64(&b.busyUntil, cur, end) {
			if wait := end - now; wait > 0 {
				b.cluster.clock.Sleep(time.Duration(wait))
			}
			return
		}
	}
}

// SetSlow makes every subsequent publish on this broker take an extra d
// (a straggler broker). Zero clears it.
func (b *Broker) SetSlow(d time.Duration) { atomic.StoreInt64(&b.slow, int64(d)) }

func (b *Broker) extraLatency() time.Duration { return time.Duration(atomic.LoadInt64(&b.slow)) }

// DropNext makes the broker reject the next n publishes (before anything is
// appended durably) with ErrPublishDropped — a lossy-network injection.
func (b *Broker) DropNext(n int) { atomic.StoreInt64(&b.dropNext, int64(n)) }

func (b *Broker) takeDrop() bool {
	for {
		n := atomic.LoadInt64(&b.dropNext)
		if n <= 0 {
			return false
		}
		if atomic.CompareAndSwapInt64(&b.dropNext, n, n-1) {
			return true
		}
	}
}

// SetDown injects or clears a broker crash. Going down releases all topic
// ownership (the coordination session closes, deleting ephemeral owner
// nodes), so surviving brokers can take the topics over.
func (b *Broker) SetDown(down bool) {
	b.mu.Lock()
	b.down = down
	b.topics = map[string]*topicState{}
	b.mu.Unlock()
	// Either direction invalidates cached ownership: a crashed broker must
	// not be resolved again, and a revived one no longer holds the topics
	// the cache remembers it owning.
	b.cluster.dropOwnerEntries(b)
	if down {
		b.cluster.meta.CloseSession(b.session)
	} else {
		b.session = b.cluster.meta.NewSession(0)
	}
}

// Down reports whether the broker is crashed.
func (b *Broker) Down() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.down
}

// topic looks up a live topic's state. Called with b.mu held (read or
// write).
func (b *Broker) topicLocked(topicName string) (*topicState, error) {
	if b.down {
		return nil, fmt.Errorf("%w: %s", ErrBrokerDown, b.ID)
	}
	ts, ok := b.topics[topicName]
	if !ok {
		return nil, fmt.Errorf("%w: %q not owned by %s", ErrNoTopic, topicName, b.ID)
	}
	return ts, nil
}

// publish appends a message durably and dispatches it to subscribers. This
// is the non-producer entry point (tests, ad-hoc callers): it encodes the
// entry itself — the encode doubles as the defensive payload copy — and
// funnels into the zero-copy path below.
func (b *Broker) publish(topicName, key string, payload []byte) (int64, error) {
	entry := make([]byte, entrySize(key, topicName, len(payload)))
	view := encodeEntryInto(entry, key, topicName, payload)
	return b.publishEntry(topicName, key, entry, view, obs.TraceCtx{})
}

// publishEntry appends a pre-encoded entry durably and dispatches it.
//
// entry is the wire-format buffer (header unstamped; the broker writes the
// authoritative seq and publish time in place under the topic lock, before
// the durable append) and payload is the view aliasing entry's payload
// bytes. From here the buffer travels uncopied: the bookie replicas retain
// it as the durable entry, the topic cache holds the payload view, and
// consumers receive that same view. The caller must treat both as
// immutable once passed in — on a failed append the buffer may already sit
// on a bookie, so a retry must re-encode into a fresh buffer, never restamp
// this one (Producer.SendKey does exactly that).
//
// tc is the publish-side causal context (zero = untraced): the durable
// append and every delivery of this message become its children.
func (b *Broker) publishEntry(topicName, key string, entry, payload []byte, tc obs.TraceCtx) (int64, error) {
	if d := b.extraLatency(); d > 0 {
		b.cluster.clock.Sleep(d) // before any lock: sleeping under a lock stalls the virtual clock
	}
	// Fail fast before reserving capacity: a publish the broker will reject
	// anyway (not owned, fenced key) must not queue behind real work.
	if err := b.precheck(topicName, key); err != nil {
		return 0, err
	}
	b.admitService(1)
	if b.takeDrop() {
		return 0, fmt.Errorf("%w: %s", ErrPublishDropped, b.ID)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, err := b.topicLocked(topicName)
	if err != nil {
		return 0, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if err := ts.checkRange(key); err != nil {
		return 0, err
	}
	now := b.cluster.clock.Now()
	seq := ts.nextSeq
	stampEntry(entry, seq, now)
	if _, err := ts.writer.AppendCtx(entry, tc); err != nil {
		return 0, err
	}
	ts.nextSeq++
	ts.cache = append(ts.cache, Message{Seq: seq, Key: key, Payload: payload, PublishTime: now, Topic: ts.name, Trace: tc})
	atomic.AddInt64(&ts.pubMsgs, 1)
	atomic.AddInt64(&ts.pubBytes, int64(len(payload)))
	c := b.cluster
	c.obsPublished.Inc()
	if c.obsPublishLat != nil {
		c.obsPublishLat.Observe(c.clock.Now().Sub(now))
	}
	for _, sub := range ts.subs {
		b.dispatchLocked(ts, sub)
		sub.updateBacklogLocked(ts)
	}
	return seq, nil
}

// publishEntryBatch appends a producer batch as one ledger group commit and
// then dispatches. entries are pre-encoded wire buffers and views their
// payload aliases (see publishEntry for the ownership contract); all
// messages share one PublishTime. Returns the first assigned seq.
func (b *Broker) publishEntryBatch(topicName string, keys []string, entries, views [][]byte, traces []obs.TraceCtx) (int64, error) {
	if d := b.extraLatency(); d > 0 {
		b.cluster.clock.Sleep(d)
	}
	// Fail fast before reserving capacity (see publishEntry).
	if err := b.precheck(topicName, keys...); err != nil {
		return 0, err
	}
	b.admitService(len(entries))
	if b.takeDrop() {
		return 0, fmt.Errorf("%w: %s", ErrPublishDropped, b.ID)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, err := b.topicLocked(topicName)
	if err != nil {
		return 0, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	// Fence the whole batch before any append: either every message is in
	// range or none is written, so the producer can redistribute the batch
	// against fresh routing without a partial prefix landing here.
	for _, k := range keys {
		if err := ts.checkRange(k); err != nil {
			return 0, err
		}
	}
	now := b.cluster.clock.Now()
	first := ts.nextSeq
	for i := range entries {
		stampEntry(entries[i], first+int64(i), now)
	}
	// The group commit parents on the batch's first traced message; each
	// message keeps its own context for delivery-time spans.
	var batchCtx obs.TraceCtx
	for _, tc := range traces {
		if tc.Valid() {
			batchCtx = tc
			break
		}
	}
	if _, err := ts.writer.AppendBatchCtx(entries, batchCtx); err != nil {
		return 0, err
	}
	for i := range entries {
		m := Message{Seq: first + int64(i), Key: keys[i], Payload: views[i], PublishTime: now, Topic: ts.name}
		if i < len(traces) {
			m.Trace = traces[i]
		}
		ts.cache = append(ts.cache, m)
	}
	ts.nextSeq = first + int64(len(entries))
	var nbytes int64
	for _, v := range views {
		nbytes += int64(len(v))
	}
	atomic.AddInt64(&ts.pubMsgs, int64(len(entries)))
	atomic.AddInt64(&ts.pubBytes, nbytes)
	c := b.cluster
	c.obsPublished.Add(int64(len(entries)))
	c.obsBatchSize.ObserveValue(int64(len(entries)))
	if c.obsPublishLat != nil {
		c.obsPublishLat.Observe(c.clock.Now().Sub(now))
	}
	for _, sub := range ts.subs {
		b.dispatchLocked(ts, sub)
		sub.updateBacklogLocked(ts)
	}
	return first, nil
}

// checkRange fences keyed publishes against the partition's accepted
// key-hash range. Lock-free (atomic loads): publishers call it once before
// admitService as a cheap fail-fast — a misrouted key should not consume
// broker capacity — and again under ts.mu as the authoritative check (the
// range narrows under that lock during a split, so a publish either sees the
// old range and lands on the parent, or is bounced to re-route — never both).
func (ts *topicState) checkRange(key string) error {
	if key == "" {
		return nil
	}
	lo, hi := atomic.LoadUint64(&ts.keyLo), atomic.LoadUint64(&ts.keyHi)
	if hi == 0 {
		return nil
	}
	if h := uint64(fnv1a(key)); h < lo || h >= hi {
		return fmt.Errorf("%w: key %q outside %q [%d,%d)", ErrRouteMoved, key, ts.name, lo, hi)
	}
	return nil
}

// precheck is the advisory pre-admission gate: it mirrors the ownership and
// key-range checks the publish body performs authoritatively under locks,
// but runs before admitService so rejected work never consumes capacity.
func (b *Broker) precheck(topicName string, keys ...string) error {
	b.mu.RLock()
	ts, err := b.topicLocked(topicName)
	if err == nil {
		for _, k := range keys {
			if err = ts.checkRange(k); err != nil {
				break
			}
		}
	}
	b.mu.RUnlock()
	return err
}

// narrowRange shrinks the accepted key range of a loaded topic in place
// (split step 3). A broker that does not hold the topic ignores the call —
// whoever loads it next reads the narrowed range from metadata.
func (b *Broker) narrowRange(topicName string, lo, hi uint64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, ok := b.topics[topicName]
	if !ok {
		return
	}
	ts.mu.Lock()
	atomic.StoreUint64(&ts.keyLo, lo)
	atomic.StoreUint64(&ts.keyHi, hi)
	ts.mu.Unlock()
}

// dropTopic releases a topic's in-memory state for a graceful handoff:
// cursors are persisted (belt and braces — every ack already persists) and
// the writer closed so the ledger tail is sealed for the next owner's
// recovery. Publishers in flight finish first (write lock); later arrivals
// get ErrNoTopic and re-resolve ownership.
func (b *Broker) dropTopic(topicName string) {
	b.mu.Lock()
	ts, ok := b.topics[topicName]
	if ok {
		delete(b.topics, topicName)
	}
	b.mu.Unlock()
	if !ok {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, sub := range ts.subs {
		b.cluster.persistCursor(sub)
	}
	if ts.writer != nil {
		ts.writer.Close()
	}
}

// topicLoadSample is one owned topic's cumulative publish counters.
type topicLoadSample struct {
	Topic string
	Msgs  int64
	Bytes int64
}

// snapshotLoad samples every owned topic's publish counters, sorted by
// topic name for deterministic load-manager decisions.
func (b *Broker) snapshotLoad() (samples []topicLoadSample, down bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.down {
		return nil, true
	}
	samples = make([]topicLoadSample, 0, len(b.topics))
	for name, ts := range b.topics {
		samples = append(samples, topicLoadSample{
			Topic: name,
			Msgs:  atomic.LoadInt64(&ts.pubMsgs),
			Bytes: atomic.LoadInt64(&ts.pubBytes),
		})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Topic < samples[j].Topic })
	return samples, false
}

// subscribe creates the durable subscription if needed and attaches the
// consumer, triggering backlog dispatch.
func (b *Broker) subscribe(topicName, subName string, mode SubMode, pos InitialPosition, reg *consumerReg) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, err := b.topicLocked(topicName)
	if err != nil {
		return err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sub, ok := ts.subs[subName]
	if !ok {
		start := int64(0)
		if pos == Latest {
			start = ts.nextSeq
		}
		sub = &subscription{
			topicName:    topicName,
			name:         subName,
			mode:         mode,
			ackedPrefix:  start,
			acks:         map[int64]bool{},
			pending:      map[int64]int64{},
			nextDispatch: start,
			backlogGauge: b.cluster.obs.Gauge("pulsar.backlog." + topicName + "." + subName),
		}
		ts.subs[subName] = sub
		sub.updateBacklogLocked(ts)
		b.cluster.persistCursor(sub)
	}
	if sub.mode == Exclusive && len(sub.consumers) > 0 {
		return fmt.Errorf("%w: %s/%s", ErrExclusiveTaken, topicName, subName)
	}
	for _, c := range sub.consumers {
		if c.id == reg.id {
			return nil // already attached (idempotent re-attach)
		}
	}
	sub.consumers = append(sub.consumers, reg)
	b.dispatchLocked(ts, sub)
	return nil
}

// detach removes a consumer; its pending messages are queued for redelivery.
func (b *Broker) detach(topicName, subName string, consumerID int64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, ok := b.topics[topicName]
	if !ok {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sub, ok := ts.subs[subName]
	if !ok {
		return
	}
	kept := sub.consumers[:0]
	for _, c := range sub.consumers {
		if c.id != consumerID {
			kept = append(kept, c)
		}
	}
	sub.consumers = kept
	sub.rr = 0
	var orphans []int64
	for seq, cid := range sub.pending {
		if cid == consumerID {
			orphans = append(orphans, seq)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, seq := range orphans {
		delete(sub.pending, seq)
		sub.redeliver = append(sub.redeliver, seq)
	}
	b.dispatchLocked(ts, sub)
}

// ack marks a message consumed and advances the durable cursor.
func (b *Broker) ack(topicName, subName string, seq int64) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, err := b.topicLocked(topicName)
	if err != nil {
		return err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sub, ok := ts.subs[subName]
	if !ok {
		return fmt.Errorf("pulsar: unknown subscription %s/%s", topicName, subName)
	}
	if seq < sub.ackedPrefix {
		return nil
	}
	if sub.dropAcks > 0 {
		// The ack is lost in flight: report success to the consumer, change
		// nothing durable. The message stays pending and will be redelivered
		// by RedeliverUnacked or a failover — at-least-once, made injectable.
		sub.dropAcks--
		return nil
	}
	delete(sub.pending, seq)
	sub.acks[seq] = true
	for sub.acks[sub.ackedPrefix] {
		delete(sub.acks, sub.ackedPrefix)
		sub.ackedPrefix++
	}
	sub.updateBacklogLocked(ts)
	// Persist on every ack, not just prefix advances: out-of-order acks
	// beyond the prefix must survive a broker failover, or the new owner
	// would redeliver already-acked messages.
	b.cluster.persistCursor(sub)
	return nil
}

// dispatchLocked delivers redeliveries and fresh messages to consumers per
// the subscription mode. Called with the topic's lock held.
func (b *Broker) dispatchLocked(ts *topicState, sub *subscription) {
	if len(sub.consumers) == 0 {
		return
	}
	// One timestamp covers the whole dispatch round: dispatch latency is
	// observed per delivered message but the clock is read at most once.
	var now time.Time
	if b.cluster.obsDispatchLat != nil && (len(sub.redeliver) > 0 || sub.nextDispatch < ts.nextSeq) {
		now = b.cluster.clock.Now()
	}
	// Redeliveries first (preserving rough order), then fresh messages.
	for len(sub.redeliver) > 0 {
		seq := sub.redeliver[0]
		sub.redeliver = sub.redeliver[1:]
		b.deliverLocked(ts, sub, seq, now)
	}
	for sub.nextDispatch < ts.nextSeq {
		seq := sub.nextDispatch
		sub.nextDispatch++
		if seq < sub.ackedPrefix || sub.acks[seq] {
			continue // already consumed (e.g. cursor moved by recovery)
		}
		b.deliverLocked(ts, sub, seq, now)
	}
}

// FNV-1a constants (inlined so KeyShared dispatch allocates nothing).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv1a(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

func (b *Broker) deliverLocked(ts *topicState, sub *subscription, seq int64, now time.Time) {
	m := ts.cache[seq]
	var target *consumerReg
	switch sub.mode {
	case Exclusive, Failover:
		target = sub.consumers[0]
	case Shared:
		target = sub.consumers[sub.rr%len(sub.consumers)]
		sub.rr++
	case KeyShared:
		target = sub.consumers[int(fnv1a(m.Key))%len(sub.consumers)]
	}
	sub.pending[seq] = target.id
	if !now.IsZero() {
		b.cluster.obsDispatchLat.Observe(now.Sub(m.PublishTime))
	}
	// Traced deliveries (first dispatch, still within the publish window)
	// record a "pulsar.deliver" child; redeliveries of long-finalized traces
	// fall into the tracer's late-span count by design.
	if m.Trace.Valid() {
		b.cluster.tracer.Start(m.Trace, "pulsar.deliver").End()
	}
	target.inbox.push(m)
}

// loadTopic recovers a topic's state onto this broker after it acquires
// ownership: previous ledgers are recovered (fencing any zombie writer), the
// message cache is rebuilt, a fresh ledger is opened for new appends, and
// durable subscription cursors are restored. Unacked messages redeliver on
// the next consumer attach (at-least-once).
func (b *Broker) loadTopic(topicName string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return fmt.Errorf("%w: %s", ErrBrokerDown, b.ID)
	}
	if _, ok := b.topics[topicName]; ok {
		return nil
	}
	c := b.cluster

	ids, err := c.topicLedgers(topicName)
	if err != nil {
		return err
	}
	// Prior ledgers mean this is a failover takeover, not a first election;
	// time the whole recovery (ledger fencing + replay + cursor restore).
	takeover := len(ids) > 0
	recoverStart := c.clock.Now()
	ts := &topicState{name: topicName, subs: map[string]*subscription{}}
	if md, err := c.getTopicMeta(topicName); err == nil {
		atomic.StoreUint64(&ts.keyLo, md.Lo)
		atomic.StoreUint64(&ts.keyHi, md.Hi)
	}
	// Ledgers that recover empty are dropped from the topic's ledger list
	// (and deleted): nothing references them, and without the prune every
	// handoff would add one more ledger to recover on the next handoff,
	// making repeated reassignment O(moves) instead of O(history).
	kept := ids[:0]
	for _, id := range ids {
		r, err := c.ledgers.Recover(id)
		if err != nil {
			return err
		}
		entries, err := r.ReadAll()
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			_ = c.ledgers.DeleteLedger(id)
			continue
		}
		kept = append(kept, id)
		ts.ranges = append(ts.ranges, ledgerRange{ID: id, StartSeq: ts.nextSeq})
		for _, e := range entries {
			m, err := decodeMessage(e)
			if err != nil {
				return err
			}
			m.Seq = ts.nextSeq // authoritative position
			ts.cache = append(ts.cache, m)
			ts.nextSeq++
		}
	}
	w, err := c.ledgers.CreateLedger(c.cfg.EnsembleSize, c.cfg.WriteQuorum, c.cfg.AckQuorum)
	if err != nil {
		return err
	}
	ts.writer = w
	ts.ranges = append(ts.ranges, ledgerRange{ID: w.ID(), StartSeq: ts.nextSeq})
	if err := c.setTopicLedgers(topicName, append(kept, w.ID())); err != nil {
		return err
	}

	// Restore durable subscriptions.
	subs, err := c.topicSubscriptions(topicName)
	if err != nil {
		return err
	}
	for name, cur := range subs {
		sub := &subscription{
			topicName:    topicName,
			name:         name,
			mode:         cur.Mode,
			ackedPrefix:  cur.AckedPrefix,
			acks:         map[int64]bool{},
			pending:      map[int64]int64{},
			nextDispatch: cur.AckedPrefix,
			backlogGauge: c.obs.Gauge("pulsar.backlog." + topicName + "." + name),
		}
		// Restore out-of-order acks so the new owner never redelivers a
		// message the subscription already acked.
		for _, seq := range cur.Acks {
			sub.acks[seq] = true
		}
		ts.subs[name] = sub
		sub.updateBacklogLocked(ts)
	}
	b.topics[topicName] = ts
	if takeover {
		c.obsRecoveries.Inc()
		c.obsRecoveryTime.Observe(c.clock.Now().Sub(recoverStart))
	}
	return nil
}

// backlog returns how many messages a subscription has yet to ack.
func (b *Broker) backlog(topicName, subName string) (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ts, ok := b.topics[topicName]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTopic, topicName)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sub, ok := ts.subs[subName]
	if !ok {
		return 0, fmt.Errorf("pulsar: unknown subscription %s/%s", topicName, subName)
	}
	return ts.nextSeq - sub.ackedPrefix - int64(len(sub.acks)), nil
}

// cursorRecord is the durable per-subscription state in the coordination
// service: the contiguous acked prefix plus any out-of-order acks beyond it
// (Shared/KeyShared subscriptions ack out of order routinely).
type cursorRecord struct {
	Mode        SubMode `json:"mode"`
	AckedPrefix int64   `json:"acked_prefix"`
	Acks        []int64 `json:"acks,omitempty"`
}

func encodeCursor(c cursorRecord) []byte { b, _ := json.Marshal(c); return b }
