package faas

import (
	"sort"
	"time"

	"repro/internal/scheduler"
)

// This file is the autoscaler's surface on the platform: light load
// snapshots (Loads), pool-target driving (SetPoolTarget) and bounded
// cold-start placement waits (placeWithBudget). The autoscaler in
// internal/autoscale ticks on these; nothing here assumes one exists —
// SetPoolTarget is equally usable as a manual pre-warming knob.

// placeRetryInterval spaces placement retries while a cold invocation waits
// inside its ColdStartBudget for the autoscaler to grow the cluster.
const placeRetryInterval = 5 * time.Millisecond

// placeWithBudget claims cluster capacity for a cold instance, retrying
// within the function's ColdStartBudget (counted from the invocation's
// start) so a concurrently growing cluster can absorb the demand. With a
// zero budget it is exactly placeInstance.
func (p *Platform) placeWithBudget(fn *function, inst *instance, start time.Time) error {
	err := p.placeInstance(fn, inst)
	if err == nil || fn.cfg.ColdStartBudget <= 0 {
		if err != nil {
			p.obsPlaceFail.Inc()
		}
		return err
	}
	deadline := start.Add(fn.cfg.ColdStartBudget)
	for p.clock.Now().Add(placeRetryInterval).Before(deadline) {
		p.clock.Sleep(placeRetryInterval)
		if err = p.placeInstance(fn, inst); err == nil {
			return nil
		}
	}
	p.obsPlaceFail.Inc()
	return err
}

// demandOf returns the function's per-instance resource demand with the
// MemoryMB default applied (what placement actually claims).
func (fn *function) demandOf() scheduler.Resources {
	d := fn.cfg.Demand
	if d == (scheduler.Resources{}) {
		d = scheduler.Resources{CPU: 1000, MemMB: float64(fn.cfg.MemoryMB)}
	}
	return d
}

// Load is one function's instantaneous load, as the autoscaler sees it.
type Load struct {
	// Key is the tenant-qualified registry key ("tenant/name") — the handle
	// to pass back into SetPoolTarget/PoolTarget, unambiguous even when two
	// tenants deploy the same function name. Name and Tenant are its parts.
	Key    string
	Name   string
	Tenant string
	// Running is in-flight invocations; WarmIdle is live idle instances;
	// Warming is instances still provisioning toward the pool target.
	Running  int
	WarmIdle int
	Warming  int
	// Invocations is the function's lifetime invocation count; deltas
	// between autoscaler ticks give the arrival rate.
	Invocations int64
	// PlaceFails counts cold placements the cluster rejected — scale-up
	// pressure the autoscaler must answer with Grow.
	PlaceFails int64
	// KeepAlive and Prewarm are the function's configured floors: the
	// autoscaler must not scale to zero before an idle instance's
	// keep-alive lapses, nor trim below the provisioned floor.
	KeepAlive time.Duration
	Prewarm   int
	// Demand is the per-instance resource vector placement claims.
	Demand         scheduler.Resources
	MaxConcurrency int
}

// Pool returns the function's total instance footprint.
func (l Load) Pool() int { return l.Running + l.WarmIdle + l.Warming }

// Loads snapshots every registered function's load, sorted by name (the
// deterministic iteration order the autoscaler depends on). It is cheap:
// no durations or timelines are copied.
func (p *Platform) Loads() []Load {
	p.mu.RLock()
	fns := make([]*function, 0, len(p.functions))
	for _, fn := range p.functions {
		fns = append(fns, fn)
	}
	p.mu.RUnlock()
	sort.Slice(fns, func(i, j int) bool { return fns[i].key < fns[j].key })
	out := make([]Load, len(fns))
	for i, fn := range fns {
		fn.mu.Lock()
		out[i] = Load{
			Key:            fn.key,
			Name:           fn.name,
			Tenant:         fn.tenant,
			Running:        fn.running,
			WarmIdle:       len(fn.idle),
			Warming:        fn.warming,
			Invocations:    fn.invocations,
			PlaceFails:     fn.placeFails,
			KeepAlive:      fn.cfg.KeepAlive,
			Prewarm:        fn.cfg.Prewarm,
			Demand:         fn.demandOf(),
			MaxConcurrency: fn.cfg.MaxConcurrency,
		}
		fn.mu.Unlock()
	}
	return out
}

// SetPoolTarget drives a function's instance pool (running + warm idle +
// warming) toward target. Growth provisions warm instances asynchronously —
// each pays its cold start off the request path and joins the idle pool
// when ready; a placement rejection is counted (Load.PlaceFails) and
// surrendered for this tick, so the autoscaler can Grow the cluster and
// retry next tick. Shrinkage releases surplus idle instances immediately
// (oldest first), never below the Prewarm floor and never touching running
// or still-warming instances. It returns how many instances were started
// (+) or released (-).
func (p *Platform) SetPoolTarget(name string, target int) (int, error) {
	if target < 0 {
		target = 0
	}
	fn, err := p.lookup("", name)
	if err != nil {
		return 0, err
	}
	now := p.clock.Now()

	fn.mu.Lock()
	fn.poolTarget = target
	pool := fn.running + len(fn.idle) + fn.warming
	switch {
	case pool < target:
		n := target - pool
		if room := fn.cfg.MaxConcurrency - pool; n > room {
			n = room
		}
		starts := make([]*instance, 0, n)
		for i := 0; i < n; i++ {
			fn.nextInst++
			starts = append(starts, &instance{id: fn.nextInst})
		}
		fn.warming += len(starts)
		if len(starts) > 0 {
			fn.recordLocked(now)
		}
		fn.mu.Unlock()
		for _, inst := range starts {
			inst := inst
			p.clock.Go(func() { p.provision(fn, inst) })
		}
		return len(starts), nil

	case pool > target:
		// Trim idle only, oldest (front) first, holding the Prewarm floor.
		trim := pool - target
		if spare := len(fn.idle) - fn.cfg.Prewarm; trim > spare {
			trim = spare
		}
		if trim <= 0 {
			fn.mu.Unlock()
			return 0, nil
		}
		victims := fn.idle[:trim]
		fn.idle = append([]*instance{}, fn.idle[trim:]...)
		for _, in := range victims {
			p.releaseInstance(fn, in)
		}
		fn.recordLocked(now)
		fn.mu.Unlock()
		return -trim, nil
	}
	fn.mu.Unlock()
	return 0, nil
}

// provision pays one warm instance's placement and cold start, then parks
// it in the idle pool. Runs on its own clock goroutine.
func (p *Platform) provision(fn *function, inst *instance) {
	if err := p.placeInstance(fn, inst); err != nil {
		fn.mu.Lock()
		fn.warming--
		fn.placeFails++
		fn.mu.Unlock()
		p.obsPlaceFail.Inc()
		return
	}
	p.clock.Sleep(fn.cfg.ColdStart)
	now := p.clock.Now()
	fn.mu.Lock()
	fn.warming--
	if fn.gone {
		p.releaseInstance(fn, inst)
		fn.mu.Unlock()
		return
	}
	inst.idleSince = now
	fn.idle = append(fn.idle, inst)
	fn.recordLocked(now)
	fn.mu.Unlock()
	p.obsPrewarmed.Inc()
}

// PoolTarget returns the function's current autoscaler target (0 and false
// when the function is unknown).
func (p *Platform) PoolTarget(name string) (int, bool) {
	fn, err := p.lookup("", name)
	if err != nil {
		return 0, false
	}
	fn.mu.Lock()
	defer fn.mu.Unlock()
	return fn.poolTarget, true
}
