package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jiffy"
	"repro/internal/pulsar"
	"repro/internal/sketch"
	"repro/internal/workload"
)

// stream-countmin: the paper's Figure 3. A seeded Zipf click stream goes
// into a 4-partition topic via Producer.SendKey; one Pulsar function updates
// a Count-Min and a SpaceSaving sketch per event and publishes threshold
// crossings. A paced phase sends at a fixed rate well below the drain rate
// (latency from each event's scheduled send time to the end of its
// processing); a backlog phase floods the topic and is timed until the last
// event is processed (throughput).

const (
	scKeys        = 10_000
	scZipfS       = 1.2
	scRate        = 5000  // paced events per second
	scPacedShare  = 0.6   // of the measured time, for the paced phase
	scFloodPerSec = 25000 // flood events per second of measured time
	scBursts      = 5     // the flood is sent in this many bursts
	scWarmup      = 4000  // events, during setup
	scSpaceSaving = 32
	scEpsilon     = 0.001
	scDelta       = 1e-6
	scDrainLimit  = 60 * time.Second
)

// scThresholds are the counts whose crossing the function publishes.
var scThresholds = []uint64{100, 1000, 10_000}

type streamCountMin struct {
	keys []string // the whole stream, warm-up first
}

func newStreamCountMin(cfg config) benchWorkload {
	paced, flood := scSizes(time.Duration(cfg.seconds) * time.Second)
	n := scWarmup + paced + flood
	return &streamCountMin{keys: workload.ZipfKeys(scKeys, scZipfS, n, cfg.seed)}
}

// scSizes is the paced and flood event counts for a measured phase of d.
func scSizes(d time.Duration) (paced, flood int) {
	return int(scRate * scPacedShare * d.Seconds()), int(scFloodPerSec * d.Seconds())
}

type scInst struct {
	w    *streamCountMin
	p    *core.Platform
	fn   *pulsar.RunningFunction
	prod *pulsar.Producer
	base time.Time
	sent int // events sent so far (warm-up included)

	// Written only by the function goroutine until the phase waits for
	// Processed(), which orders them before the reads.
	cm        *sketch.CountMin
	ss        *sketch.SpaceSaving
	calls     []uint8
	procStart []int64
	procEnd   []int64
	published map[string]int // crossings published per key, as a count of scThresholds

	// Written only by the sending goroutine.
	sched     []int64
	sendStart []int64
	sendEnd   []int64

	handlerCalls atomic.Int64
	backlogMax   int64
	checks       int // subscriptions the checker has opened
	pacedFrom    int
	floodFrom    int
	floodEnd     int
}

func (w *streamCountMin) setup() (instance, error) {
	p := core.New(core.Options{JiffyLatency: jiffy.NoLatency, BlobLatency: blobNoLatency})
	n := len(w.keys)
	in := &scInst{
		w: w, p: p, base: time.Now(),
		cm: sketch.NewCountMin(scEpsilon, scDelta), ss: sketch.NewSpaceSaving(scSpaceSaving),
		published: map[string]int{},
		calls:     make([]uint8, n), procStart: make([]int64, n), procEnd: make([]int64, n),
		sched: make([]int64, n), sendStart: make([]int64, n), sendEnd: make([]int64, n),
	}
	if err := p.Pulsar.CreateTopic("clicks", 4); err != nil {
		return nil, err
	}
	if err := p.Pulsar.CreateTopic("crossings", 0); err != nil {
		return nil, err
	}
	fn, err := p.Pulsar.StartFunction(pulsar.FunctionConfig{
		Name: "countmin", Inputs: []string{"clicks"}, Output: "crossings",
	}, in.handle)
	if err != nil {
		return nil, err
	}
	in.fn = fn
	if in.prod, err = p.Pulsar.CreateProducer("clicks"); err != nil {
		in.close()
		return nil, err
	}
	for i := 0; i < scWarmup; i++ {
		if err := in.send(i); err != nil {
			in.close()
			return nil, err
		}
	}
	if err := in.drain(scWarmup); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *scInst) close() { in.fn.Stop() }

func (in *scInst) now() int64 { return int64(time.Since(in.base)) }

// handle is the Pulsar function body of Figure 3: add the click to the
// sketches and react to the updated count by publishing crossings.
func (in *scInst) handle(ctx *pulsar.FnContext, m pulsar.Message) ([]byte, error) {
	seq := binary.BigEndian.Uint64(m.Payload)
	in.procStart[seq] = in.now()
	in.handlerCalls.Add(1)
	in.calls[seq]++
	in.cm.Add(m.Key, 1)
	in.ss.Add(m.Key, 1)
	est := in.cm.Estimate(m.Key)
	// Other keys' clicks can lift this key's estimate past a threshold, so
	// the function remembers which crossings it has published per key.
	for i := in.published[m.Key]; i < len(scThresholds) && est >= scThresholds[i]; i++ {
		if err := ctx.Publish(m.Key, []byte(m.Key+"@"+strconv.FormatUint(scThresholds[i], 10))); err != nil {
			return nil, err
		}
		in.published[m.Key] = i + 1
	}
	in.procEnd[seq] = in.now()
	return nil, nil
}

// send publishes event i, recording its send interval.
func (in *scInst) send(i int) error {
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], uint64(i))
	in.sendStart[i] = in.now()
	_, err := in.prod.SendKey(in.w.keys[i], payload[:])
	in.sendEnd[i] = in.now()
	in.sent = i + 1
	if err != nil {
		return fmt.Errorf("send %d: %w", i, err)
	}
	return nil
}

// drain waits until the function has processed n events.
func (in *scInst) drain(n int) error {
	deadline := time.Now().Add(scDrainLimit)
	for in.fn.Processed() < int64(n) {
		if time.Now().After(deadline) {
			return fmt.Errorf("function processed %d of %d events in %v", in.fn.Processed(), n, scDrainLimit)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func (in *scInst) sampleBacklog(tr *tracer, i int) {
	if tr == nil || i%512 != 0 {
		return
	}
	if b, err := in.p.Pulsar.Backlog("clicks", "fn-countmin"); err == nil && b > in.backlogMax {
		in.backlogMax = b
	}
}

func (in *scInst) run(d time.Duration, tr *tracer) *phase {
	paced, flood := scSizes(d)
	ph := &phase{counts: map[string]float64{}}
	in.pacedFrom = in.sent
	in.floodFrom = in.pacedFrom + paced
	in.floodEnd = in.floodFrom + flood

	// Paced phase: an open loop at scRate; each event's latency runs from
	// when it was due, so a stalled sender counts against later events. The
	// sender yields until each event is due rather than sleeping: with every
	// processor idle, the runtime's timers fire on a millisecond grain, and
	// time.Sleep's lateness (0.5 ms median, several ms at p99 on a 2-CPU
	// VM) would be measured as event latency.
	interval := time.Second / scRate
	start := in.now()
	ph.t0 = in.base.Add(time.Duration(start))
	for i := in.pacedFrom; i < in.floodFrom; i++ {
		in.sched[i] = start + int64(i-in.pacedFrom)*int64(interval)
		for in.now() < in.sched[i] {
			runtime.Gosched()
		}
		if err := in.send(i); err != nil {
			ph.fail("%v", err)
			return in.finish(ph, tr)
		}
		in.sampleBacklog(tr, i)
	}
	if err := in.drain(in.floodFrom); err != nil {
		ph.fail("paced phase: %v", err)
		return in.finish(ph, tr)
	}

	for i := in.pacedFrom; i < in.floodFrom; i++ {
		ph.lat = append(ph.lat, in.procEnd[i]-in.sched[i])
		ph.at = append(ph.at, in.sched[i]-start)
	}

	// Backlog phase, in scBursts bursts: send a burst as fast as SendKey
	// allows, timed until the function has processed its last event.
	// Process figures cover this phase only: the paced sender's yielding
	// would swamp them.
	var proc procDelta
	for b := 0; b < scBursts; b++ {
		// Each burst starts from a collected heap, so a GC cycle lands at
		// the same point of every burst.
		runtime.GC()
		before := snapProc()
		from, to := in.floodFrom+b*flood/scBursts, in.floodFrom+(b+1)*flood/scBursts
		burstStart := in.now()
		for i := from; i < to; i++ {
			in.sched[i] = burstStart
			if err := in.send(i); err != nil {
				ph.fail("%v", err)
				return in.finish(ph, tr)
			}
			in.sampleBacklog(tr, i)
		}
		if err := in.drain(to); err != nil {
			ph.fail("backlog phase: %v", err)
			return in.finish(ph, tr)
		}
		var last int64
		for i := from; i < to; i++ {
			last = max(last, in.procEnd[i])
		}
		ph.bursts = append(ph.bursts, burst{
			start: in.base.Add(time.Duration(burstStart)), end: in.base.Add(time.Duration(last)), ops: int64(to - from),
		})
		proc = proc.plus(before.to(snapProc()))
	}
	ph.proc, ph.procOps = proc, int64(flood)
	return in.finish(ph, tr)
}

// finish checks the whole stream's outputs and fills the phase counts.
func (in *scInst) finish(ph *phase, tr *tracer) *phase {
	measured := int64(in.sent - in.pacedFrom)
	ph.ops = measured
	ph.attempted = measured
	for _, p := range in.check() {
		ph.fail("%s", p)
	}
	unique := 0
	for i := 0; i < in.sent; i++ {
		if in.calls[i] > 0 {
			unique++
		}
	}
	if unique > 0 {
		ph.counts["pulsar.dup_ratio"] = float64(in.handlerCalls.Load()) / float64(unique)
	}
	if tr != nil {
		ph.counts["pulsar.backlog_max"] = float64(in.backlogMax)
		in.spans(tr)
	}
	var lag []int64
	for i := in.pacedFrom; i < in.floodFrom && i < in.sent; i++ {
		lag = append(lag, in.sendStart[i]-in.sched[i])
	}
	ph.counts["generator.lag_ms.p99"] = pctMs(lag, 0.99)
	return ph
}

// check verifies every event was processed exactly once and the sketches
// and published crossings agree with the true counts.
func (in *scInst) check() []string {
	var bad []string
	report := func(format string, args ...any) {
		if len(bad) < 10 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	if e := in.fn.Errors(); e != 0 {
		report("function reported %d errors", e)
	}
	missing, dup := 0, 0
	for i := 0; i < in.sent; i++ {
		switch c := in.calls[i]; {
		case c == 0:
			missing++
		case c > 1:
			dup++
		}
	}
	if missing > 0 || dup > 0 {
		report("events: %d never processed, %d processed more than once (of %d)", missing, dup, in.sent)
	}
	return append(bad, checkSketches(in.w.keys[:in.sent], in.cm, in.ss, in.crossings())...)
}

// crossings reads the whole crossings topic through a new subscription.
func (in *scInst) crossings() []string {
	in.checks++
	cons, err := in.p.Pulsar.Subscribe("crossings", "check-"+strconv.Itoa(in.checks), pulsar.Exclusive, pulsar.Earliest)
	if err != nil {
		return []string{"subscribe error: " + err.Error()}
	}
	defer cons.Close()
	var out []string
	for {
		m, ok := cons.Receive(20 * time.Millisecond)
		if !ok {
			return out
		}
		out = append(out, string(m.Payload))
		_ = cons.Ack(m) // the subscription is discarded with the instance
	}
}

// checkSketches compares the sketches and the published crossings
// ("key@threshold") with the true counts of the stream the function saw.
func checkSketches(stream []string, cm *sketch.CountMin, ss *sketch.SpaceSaving, crossings []string) []string {
	var bad []string
	report := func(format string, args ...any) {
		if len(bad) < 10 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	truth := map[string]uint64{}
	for _, k := range stream {
		truth[k]++
	}
	if cm.N() != uint64(len(stream)) {
		report("count-min saw %d events, stream has %d", cm.N(), len(stream))
	}
	bound := cm.ErrorBound()
	for k, c := range truth {
		if est := cm.Estimate(k); est < c || est-c > bound {
			report("count-min estimate of %s is %d, true count %d, bound εN=%d", k, est, c, bound)
		}
	}
	top := map[string]bool{}
	for _, e := range ss.Top(scSpaceSaving) {
		top[e.Key] = true
	}
	for k, c := range truth {
		if c > uint64(len(stream))/scSpaceSaving && !top[k] {
			report("spacesaving misses heavy key %s (count %d)", k, c)
		}
	}
	seen := map[string]bool{}
	for _, x := range crossings {
		if seen[x] {
			report("crossing %s published twice", x)
		}
		seen[x] = true
		k, ts, _ := strings.Cut(x, "@")
		t, _ := strconv.ParseUint(ts, 10, 64)
		if truth[k]+bound < t {
			report("crossing %s published, true count %d + εN %d is below it", x, truth[k], bound)
		}
	}
	for k, c := range truth {
		for _, t := range scThresholds {
			if c >= t && !seen[k+"@"+strconv.FormatUint(t, 10)] {
				report("true count of %s is %d, crossing of %d never published", k, c, t)
			}
		}
	}
	return bad
}

// spans rebuilds measured events' spans from the recorded timestamps: the
// send, the delivery (paced phase only, where it is not queueing behind a
// flood) and the function body. Every paced event and every 4th flood event
// is traced.
func (in *scInst) spans(tr *tracer) {
	for i := in.pacedFrom; i < in.sent; i++ {
		if in.calls[i] == 0 {
			continue
		}
		if i >= in.floodFrom && i%4 != 0 {
			continue // flood events are sampled
		}
		trace, root := int64(i), tr.id()
		off := int64(in.base.Sub(tr.base))
		due := in.sched[i]
		if i >= in.floodFrom {
			due = in.sendStart[i] // every flood event is due at once
		}
		tr.record(span{trace: trace, id: root, start: due + off, end: in.procEnd[i] + off, name: spOp})
		tr.record(span{trace: trace, id: tr.id(), parent: root, start: in.sendStart[i] + off, end: in.sendEnd[i] + off, name: spSend})
		if i < in.floodFrom {
			tr.record(span{trace: trace, id: tr.id(), parent: root, start: in.sendEnd[i] + off, end: in.procStart[i] + off, name: spDeliver})
		}
		tr.record(span{trace: trace, id: tr.id(), parent: root, start: in.procStart[i] + off, end: in.procEnd[i] + off, name: spFnHandler})
	}
}

func (w *streamCountMin) layers(ph *phase, st *spanStats, out map[string]float64, samples map[string]int) {
	spanLayers(st, out, samples)
	for k, v := range ph.counts {
		out[k] = v
	}
}
