// Package chaos is the platform's deterministic fault-injection plane.
//
// A seeded generator produces a Schedule of crash/restart, straggler
// (added-latency) and drop events against the stateful components of the
// Figure-1 stack — bookies (ledger), brokers (pulsar) and Jiffy memory
// nodes — and an Injector replays the schedule on the virtual clock. Every
// event lands at a fixed virtual instant, offset off the millisecond grid
// that workloads naturally tick on, so two runs with the same seed produce
// byte-identical event logs and byte-identical system behavior. That
// determinism is what turns "we survived a soak" into a regression test:
// the recovery paths exercised are the same ones every run.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/jiffy"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/pulsar"
	"repro/internal/simclock"
)

// Op is a fault operation.
type Op string

const (
	OpCrash   Op = "crash"
	OpRestart Op = "restart"
	OpSlow    Op = "slow" // add Latency to the target's operations (0 clears)
	OpDrop    Op = "drop" // fail the target's next N operations (KindSub: swallow the next N acks)
	// OpDuplicate forces duplicate delivery: every delivered-but-unacked
	// message of the target subscription (KindSub, Target "topic/sub") is
	// redelivered through the exact-cursor redelivery queue — the
	// at-least-once delivery fault the conformance explorer probes.
	OpDuplicate Op = "duplicate"
)

// Kind is a fault target class.
type Kind string

const (
	KindBookie Kind = "bookie"
	KindBroker Kind = "broker"
	KindJiffy  Kind = "jiffy"
	// KindSub targets a pulsar subscription; Target is "topic/sub".
	KindSub Kind = "sub"
)

// Event is one scheduled fault, At ticks after injection starts.
type Event struct {
	At      time.Duration
	Op      Op
	Kind    Kind
	Target  string
	Latency time.Duration // OpSlow: the added latency
	N       int           // OpDrop: how many operations to drop
}

func (e Event) String() string {
	s := fmt.Sprintf("t=%v %s %s/%s", e.At, e.Op, e.Kind, e.Target)
	if e.Op == OpSlow {
		s += fmt.Sprintf(" latency=%v", e.Latency)
	}
	if e.Op == OpDrop {
		s += fmt.Sprintf(" n=%d", e.N)
	}
	return s
}

// Schedule is a time-ordered fault plan.
type Schedule []Event

// Options parameterizes Generate. Zero values take defaults; the target
// lists default to empty (no faults of that kind).
type Options struct {
	// Seed drives every random choice. The same seed and targets always
	// yield the same schedule.
	Seed int64
	// Duration is the soak window faults land in. Default 100ms.
	Duration time.Duration
	// Targets, by kind.
	Bookies, Brokers, JiffyNodes []string
	// Crashes is how many crash+restart pairs to plan. Default 3.
	Crashes int
	// Stragglers is how many slow+clear pairs to plan (bookies and brokers
	// only). Default 2.
	Stragglers int
	// Drops is how many drop bursts to plan (bookies and brokers only).
	// Default 2.
	Drops int
	// MaxSlow bounds injected straggler latency. Default 2ms.
	MaxSlow time.Duration
}

// eventOffset keeps fault instants off the millisecond grid that workload
// loops tick on: no fault ever lands at the exact instant a workload
// goroutine wakes, so the virtual-clock interleaving is unambiguous and
// runs are reproducible.
const eventOffset = 333 * time.Microsecond

type target struct {
	kind Kind
	id   string
}

// Generate plans a seeded fault schedule. At most one target per kind is
// down at any instant (a quorum-respecting adversary: recovery paths are
// exercised without making progress impossible), and crash/restart pairs
// never overlap on the same target.
func Generate(opts Options) Schedule {
	if opts.Duration <= 0 {
		opts.Duration = 100 * time.Millisecond
	}
	if opts.Crashes == 0 {
		opts.Crashes = 3
	}
	if opts.Stragglers == 0 {
		opts.Stragglers = 2
	}
	if opts.Drops == 0 {
		opts.Drops = 2
	}
	if opts.MaxSlow <= 0 {
		opts.MaxSlow = 2 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	slots := int(opts.Duration / time.Millisecond)
	if slots < 10 {
		slots = 10
	}
	at := func(slot int) time.Duration {
		return time.Duration(slot)*time.Millisecond + eventOffset
	}

	var crashable []target
	for _, id := range opts.Bookies {
		crashable = append(crashable, target{KindBookie, id})
	}
	for _, id := range opts.Brokers {
		crashable = append(crashable, target{KindBroker, id})
	}
	for _, id := range opts.JiffyNodes {
		crashable = append(crashable, target{KindJiffy, id})
	}
	var flaky []target // slow/drop apply to bookies and brokers only
	for _, t := range crashable {
		if t.kind != KindJiffy {
			flaky = append(flaky, t)
		}
	}

	var sch Schedule
	// kindBusyUntil enforces one concurrent outage per kind; rejected plans
	// are skipped, not re-rolled, so the rng stream stays aligned.
	kindBusyUntil := map[Kind]int{}
	for i := 0; i < opts.Crashes && len(crashable) > 0; i++ {
		t := crashable[rng.Intn(len(crashable))]
		start := 1 + rng.Intn(slots*6/10)
		down := 1 + slots/10 + rng.Intn(slots/5+1)
		if start < kindBusyUntil[t.kind] {
			continue
		}
		kindBusyUntil[t.kind] = start + down + 1
		sch = append(sch,
			Event{At: at(start), Op: OpCrash, Kind: t.kind, Target: t.id},
			Event{At: at(start + down), Op: OpRestart, Kind: t.kind, Target: t.id},
		)
	}
	slowSteps := int(opts.MaxSlow / (500 * time.Microsecond))
	if slowSteps < 1 {
		slowSteps = 1
	}
	for i := 0; i < opts.Stragglers && len(flaky) > 0; i++ {
		t := flaky[rng.Intn(len(flaky))]
		start := 1 + rng.Intn(slots*7/10)
		lat := time.Duration(1+rng.Intn(slowSteps)) * 500 * time.Microsecond
		span := 1 + rng.Intn(slots/5+1)
		sch = append(sch,
			Event{At: at(start), Op: OpSlow, Kind: t.kind, Target: t.id, Latency: lat},
			Event{At: at(start + span), Op: OpSlow, Kind: t.kind, Target: t.id, Latency: 0},
		)
	}
	for i := 0; i < opts.Drops && len(flaky) > 0; i++ {
		t := flaky[rng.Intn(len(flaky))]
		start := 1 + rng.Intn(slots*8/10)
		sch = append(sch, Event{At: at(start), Op: OpDrop, Kind: t.kind, Target: t.id, N: 1 + rng.Intn(2)})
	}
	sort.SliceStable(sch, func(i, j int) bool { return sch[i].At < sch[j].At })
	return sch
}

// Injector replays a Schedule against live components. Any of the component
// handles may be nil; events for an absent component are logged as skipped.
type Injector struct {
	clock   simclock.Clock
	ledgers *ledger.System
	cluster *pulsar.Cluster
	mem     *jiffy.Controller

	obsInjected *obs.Counter
	obsMTTR     *obs.Histogram

	mu     sync.Mutex
	log    []string
	downAt map[string]time.Time
	wg     sync.WaitGroup
}

// NewInjector wires an injector to the stack under test.
func NewInjector(clock simclock.Clock, ledgers *ledger.System, cluster *pulsar.Cluster, mem *jiffy.Controller) *Injector {
	return &Injector{
		clock:   clock,
		ledgers: ledgers,
		cluster: cluster,
		mem:     mem,
		downAt:  map[string]time.Time{},
	}
}

// SetObs attaches observability instruments: chaos.injected counts applied
// events, chaos.mttr observes crash→restart spans per target.
func (inj *Injector) SetObs(r *obs.Registry) {
	inj.obsInjected = r.Counter("chaos.injected")
	inj.obsMTTR = r.Histogram("chaos.mttr")
}

// Run replays the schedule on the clock in a background goroutine. Under a
// virtual clock inside Virtual.Run the replay completes before Run returns;
// Wait blocks explicitly otherwise.
func (inj *Injector) Run(sch Schedule) {
	inj.wg.Add(1)
	inj.clock.Go(func() {
		defer inj.wg.Done()
		var elapsed time.Duration
		for _, e := range sch {
			if e.At > elapsed {
				inj.clock.Sleep(e.At - elapsed)
				elapsed = e.At
			}
			inj.apply(e)
		}
	})
}

// Wait blocks (clock-aware) until every scheduled event has been applied.
func (inj *Injector) Wait() { inj.clock.BlockOn(inj.wg.Wait) }

// Log returns the applied-event log, one line per event in application
// order. Two runs with the same seed, stack and workload produce identical
// logs — the determinism contract the soak tests pin.
func (inj *Injector) Log() []string {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]string(nil), inj.log...)
}

func (inj *Injector) apply(e Event) {
	note := inj.dispatch(e)
	inj.mu.Lock()
	defer inj.mu.Unlock()
	line := e.String()
	if note != "" {
		line += " " + note
	}
	inj.log = append(inj.log, line)
	inj.obsInjected.Inc()
	key := string(e.Kind) + "/" + e.Target
	switch e.Op {
	case OpCrash:
		inj.downAt[key] = inj.clock.Now()
	case OpRestart:
		if t0, ok := inj.downAt[key]; ok {
			inj.obsMTTR.Observe(inj.clock.Now().Sub(t0))
			delete(inj.downAt, key)
		}
	}
}

// dispatch applies the fault to the owning component and returns an outcome
// note for the log.
func (inj *Injector) dispatch(e Event) string {
	switch e.Kind {
	case KindBookie:
		if inj.ledgers == nil {
			return "(no ledger system)"
		}
		b, ok := inj.ledgers.Bookie(e.Target)
		if !ok {
			return "(unknown bookie)"
		}
		switch e.Op {
		case OpCrash:
			b.SetDown(true)
		case OpRestart:
			b.SetDown(false)
		case OpSlow:
			b.SetSlow(e.Latency)
		case OpDrop:
			b.DropNext(e.N)
		}
	case KindBroker:
		if inj.cluster == nil {
			return "(no cluster)"
		}
		b, ok := inj.cluster.Broker(e.Target)
		if !ok {
			return "(unknown broker)"
		}
		switch e.Op {
		case OpCrash:
			b.SetDown(true)
		case OpRestart:
			b.SetDown(false)
		case OpSlow:
			b.SetSlow(e.Latency)
		case OpDrop:
			b.DropNext(e.N)
		}
	case KindSub:
		if inj.cluster == nil {
			return "(no cluster)"
		}
		topic, sub, ok := strings.Cut(e.Target, "/")
		if !ok {
			return "(target must be topic/sub)"
		}
		switch e.Op {
		case OpDuplicate:
			n, err := inj.cluster.RedeliverUnacked(topic, sub)
			if err != nil {
				return fmt.Sprintf("(err %v)", err)
			}
			return fmt.Sprintf("redelivered=%d", n)
		case OpDrop:
			if err := inj.cluster.DropAcks(topic, sub, e.N); err != nil {
				return fmt.Sprintf("(err %v)", err)
			}
		default:
			return "(unsupported on sub)"
		}
	case KindJiffy:
		if inj.mem == nil {
			return "(no jiffy controller)"
		}
		switch e.Op {
		case OpCrash:
			repaired, lost, err := inj.mem.CrashNode(e.Target)
			if err != nil {
				return fmt.Sprintf("(err %v)", err)
			}
			return fmt.Sprintf("repaired=%d lost=%d", repaired, lost)
		case OpRestart:
			if err := inj.mem.RestartNode(e.Target); err != nil {
				return fmt.Sprintf("(err %v)", err)
			}
		default:
			return "(unsupported on jiffy)"
		}
	}
	return ""
}
