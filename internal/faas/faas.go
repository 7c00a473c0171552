// Package faas implements the Function-as-a-Service platform at the centre
// of the paper (§2, §4.1): users register stateless functions and the
// platform provides demand-driven execution — instances are provisioned on
// demand (paying a cold-start penalty), kept warm for a keep-alive window,
// and reaped back to zero when idle — with limited execution times,
// per-function concurrency limits, transparent retry of failed asynchronous
// invocations, and fine-grained billing.
//
// Function compute is modelled, not burned: handlers call Ctx.Work(d) to
// consume d of simulated execution time on the shared Clock, which also
// enforces the platform's execution time limit deterministically.
package faas

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"math/rand"

	"repro/internal/billing"
	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/simclock"
)

// Errors returned by the platform. Throttle, breaker and cold-start
// sentinels wrap the platform-wide identities in internal/errs, so
// errors.Is(err, core.ErrThrottled) matches regardless of which plane shed
// the request.
var (
	ErrNoFunction  = errors.New("faas: function not registered")
	ErrExists      = errors.New("faas: function already registered")
	ErrAmbiguous   = errors.New("faas: function name owned by several tenants; qualify as tenant/name")
	ErrThrottled   = fmt.Errorf("faas: concurrency limit reached (%w)", errs.ErrThrottled)
	ErrTimeout     = errors.New("faas: execution time limit exceeded")
	ErrPayloadSize = errors.New("faas: payload too large")
	ErrCircuitOpen = fmt.Errorf("faas: %w", errs.ErrBreakerOpen)
	// ErrColdStartTimeout is returned when a cold invocation could not obtain
	// cluster capacity within its ColdStartBudget (the autoscaler did not
	// grow the fleet in time).
	ErrColdStartTimeout = fmt.Errorf("faas: %w waiting for capacity", errs.ErrColdStartTimeout)
)

// Handler is the user function body. It may call Ctx.Work to model compute
// and may use any platform service captured in its closure; its returned
// bytes are the invocation result. The *Ctx is drawn from a platform-wide
// pool and is recycled when the handler returns: handlers must not retain it
// past return (copy the fields they need instead).
type Handler func(ctx *Ctx, payload []byte) ([]byte, error)

// Config parameterizes one registered function.
type Config struct {
	// MemoryMB sizes the instance; it scales billing (GB-seconds).
	// Default 128.
	MemoryMB int
	// Timeout is the execution time limit ("limited execution times",
	// §4.1). Default 60s.
	Timeout time.Duration
	// MaxConcurrency caps simultaneously running instances. Default 1000.
	MaxConcurrency int
	// KeepAlive is how long an idle warm instance survives before the
	// platform reclaims it. Default 10m, matching observed provider
	// behaviour ([180]). Zero means instances are never reused.
	KeepAlive time.Duration
	// ColdStart is the provisioning+runtime-init latency of a new
	// instance. Default 250ms, in the range measured by [112]/[180].
	ColdStart time.Duration
	// WarmStart is the dispatch latency onto an existing instance.
	// Default 1ms.
	WarmStart time.Duration
	// MaxRetries is how many times InvokeAsync re-executes a failed
	// invocation. Default 2 (i.e. up to 3 attempts), as AWS Lambda does
	// for asynchronous events.
	MaxRetries int
	// MaxPayload bounds the request payload size in bytes. Default 6 MB.
	MaxPayload int
	// Prewarm keeps at least this many instances warm at all times
	// ("provisioned concurrency"): they are created at registration and
	// exempt from keep-alive reaping, trading standing cost for zero cold
	// starts — the §6 SLA-predictability lever.
	Prewarm int
	// Demand is the instance's resource vector when the platform is
	// attached to a cluster (AttachCluster). Zero means {CPU: 1000,
	// MemMB: MemoryMB}.
	Demand scheduler.Resources
	// BreakerThreshold arms a per-function circuit breaker: after this many
	// consecutive handler failures the breaker opens and invokes fast-fail
	// with ErrCircuitOpen — before reserving a concurrency slot — until a
	// half-open probe succeeds. Zero (default) disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before letting a
	// single half-open probe through. Default 30s when the breaker is armed.
	BreakerCooldown time.Duration
	// ColdStartBudget bounds how long a cold invocation may wait for
	// cluster capacity (retrying placement while the autoscaler grows the
	// fleet) before failing with ErrColdStartTimeout. Zero keeps the legacy
	// behaviour: a failed placement throttles immediately.
	ColdStartBudget time.Duration
	// DedupWindow arms per-function idempotency-key deduplication: an invoke
	// carrying a key (Req.IdemKey) whose previous keyed invocation
	// *succeeded* within the window is served the cached Result — no
	// handler execution, no billing — with Result.Deduped set. This is the
	// opt-in half of exactly-once-observable semantics over an at-least-once
	// transport: the platform still retries, but a client that lost the reply
	// and re-sends its key cannot double-execute the handler. Failed attempts
	// are never cached (a retry after failure must re-execute), and the
	// window is best-effort for *concurrent* duplicates: two in-flight
	// invocations of the same key may both execute, as on real platforms
	// whose dedup is a post-commit record, not a lock. Zero disables dedup;
	// keys are then ignored.
	DedupWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.MemoryMB == 0 {
		c.MemoryMB = 128
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxConcurrency == 0 {
		c.MaxConcurrency = 1000
	}
	if c.KeepAlive == 0 {
		c.KeepAlive = 10 * time.Minute
	}
	if c.ColdStart == 0 {
		c.ColdStart = 250 * time.Millisecond
	}
	if c.WarmStart == 0 {
		c.WarmStart = time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0 // negative disables async retry
	}
	if c.MaxPayload == 0 {
		c.MaxPayload = 6 << 20
	}
	if c.BreakerThreshold > 0 && c.BreakerCooldown == 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	return c
}

// Ctx is passed to every handler invocation.
type Ctx struct {
	Clock        simclock.Clock
	FunctionName string
	Tenant       string
	RequestID    int64
	InstanceID   int64 // identity of the warm instance running this request
	Attempt      int   // 1-based attempt number under retry
	// Trace is the handler span's causal context. Handlers thread it into
	// downstream trace-aware APIs (a pulsar ProducerMessage.Trace, jiffy
	// Traced, a nested invoke's Req.Trace) so one request is one trace
	// across subsystems. It is two int64s copied by value — safe to pass
	// onward even though *Ctx itself is pooled and must not be retained.
	Trace obs.TraceCtx

	budget   time.Duration // remaining execution time
	worked   time.Duration
	exceeded bool
	slowdown float64 // interference multiplier (≥1) from co-resident contenders
}

// Work consumes d of simulated execution time. If the function's remaining
// time budget is smaller than d, Work consumes only the budget and marks the
// invocation as timed out; the platform then fails it with ErrTimeout.
// When the platform is attached to a cluster, the wall-clock cost is
// inflated by the instance's interference slowdown (§6 "SLA Guarantees":
// contention makes performance unpredictable) while the budget is charged
// the nominal amount.
func (c *Ctx) Work(d time.Duration) {
	if d <= 0 || c.exceeded {
		return
	}
	if d >= c.budget {
		d = c.budget
		c.exceeded = true
	}
	c.budget -= d
	c.worked += d
	wall := d
	if c.slowdown > 1 {
		wall = time.Duration(float64(d) * c.slowdown)
	}
	c.Clock.Sleep(wall)
}

// Slowdown returns the invocation's interference multiplier (1 when the
// platform has no cluster attached or the instance has no contenders).
func (c *Ctx) Slowdown() float64 {
	if c.slowdown < 1 {
		return 1
	}
	return c.slowdown
}

// TimedOut reports whether the invocation has exhausted its time budget.
func (c *Ctx) TimedOut() bool { return c.exceeded }

// Remaining returns the unconsumed execution time budget.
func (c *Ctx) Remaining() time.Duration { return c.budget }

type instance struct {
	id        int64
	idleSince time.Time
}

// ScalePoint is one sample of a function's instance footprint over time,
// recorded at every scaling-relevant event (experiment E2).
type ScalePoint struct {
	At        time.Time
	Instances int // warm idle + running
}

type function struct {
	name     string
	key      string // tenant-qualified name "tenant/name", for loads and cluster slots
	tenant   string
	handler  Handler
	cfg      Config
	platform *Platform

	brk      breaker    // armed when cfg.BreakerThreshold > 0
	brkGauge *obs.Gauge // per-function breaker state; nil → no-op

	// idem is the dedup-window cache (armed when cfg.DedupWindow > 0):
	// idempotency key → cached successful Result and its expiry. Its own
	// mutex, not fn.mu — a dedup hit must not contend with the instance-pool
	// bookkeeping it exists to bypass.
	idemMu sync.Mutex
	idem   map[string]idemEntry

	// Tenant/function-labeled handles and the tenant SLO accumulator,
	// resolved once at Register (nil no-ops without observability) so the
	// invoke path never touches a label map.
	lblInv  *obs.Counter
	lblFail *obs.Counter
	lblLat  *obs.Histogram
	slo     *obs.TenantSLO

	mu          sync.Mutex
	idle        []*instance // LIFO: most recently used first
	running     int
	warming     int  // instances provisioning toward the pool target
	gone        bool // set by Unregister; in-flight provisions release
	placeFails  int64
	poolTarget  int // autoscaler-desired pool size (informational)
	nextInst    int64
	invocations int64
	coldStarts  int64
	throttles   int64
	timeouts    int64
	failures    int64
	// durations is a fixed-capacity ring of the most recent end-to-end
	// invoke latencies (lazily allocated, durationWindow entries). A ring
	// instead of an unbounded append keeps the steady-state invoke path
	// allocation-free and bounds per-function memory on long soaks.
	durBuf   []time.Duration
	durNext  int // next write position
	durCount int // number of valid entries (≤ len(durBuf))
	timeline []ScalePoint
}

// idemEntry is one cached keyed result in a function's dedup window.
type idemEntry struct {
	res     Result
	expires time.Time
}

// idemSweepAt bounds the dedup cache: once the map holds this many entries a
// store first sweeps everything expired, so the cache is O(live window), not
// O(history).
const idemSweepAt = 1 << 12

// dedupLookup returns the cached Result for an idempotency key if it is still
// inside the window. Expired entries are deleted on the way.
func (fn *function) dedupLookup(key string, now time.Time) (Result, bool) {
	if key == "" || fn.cfg.DedupWindow <= 0 {
		return Result{}, false
	}
	fn.idemMu.Lock()
	defer fn.idemMu.Unlock()
	e, ok := fn.idem[key]
	if !ok {
		return Result{}, false
	}
	if now.After(e.expires) {
		delete(fn.idem, key)
		return Result{}, false
	}
	return e.res, true
}

// dedupStore records a successful keyed invocation. Only successes are
// cached: replaying a failure would hide exactly the retry that could fix it.
func (fn *function) dedupStore(key string, res Result, now time.Time) {
	if key == "" || fn.cfg.DedupWindow <= 0 {
		return
	}
	fn.idemMu.Lock()
	defer fn.idemMu.Unlock()
	if fn.idem == nil {
		fn.idem = map[string]idemEntry{}
	} else if len(fn.idem) >= idemSweepAt {
		for k, e := range fn.idem {
			if now.After(e.expires) {
				delete(fn.idem, k)
			}
		}
	}
	fn.idem[key] = idemEntry{res: res, expires: now.Add(fn.cfg.DedupWindow)}
}

// durationWindow is the per-function latency-window size. Every existing
// workload (experiments, demos, soaks) invokes any single function far fewer
// times than this, so percentiles over the window equal percentiles over the
// full history for them; only unbounded growth is cut off.
const durationWindow = 1 << 15

// recordDurationLocked appends a latency sample to the ring. Called with
// fn.mu held.
func (fn *function) recordDurationLocked(d time.Duration) {
	if fn.durBuf == nil {
		fn.durBuf = make([]time.Duration, durationWindow)
	}
	fn.durBuf[fn.durNext] = d
	fn.durNext = (fn.durNext + 1) % len(fn.durBuf)
	if fn.durCount < len(fn.durBuf) {
		fn.durCount++
	}
}

// durationsLocked reconstructs the window oldest-first. Called with fn.mu
// held.
func (fn *function) durationsLocked() []time.Duration {
	out := make([]time.Duration, 0, fn.durCount)
	start := fn.durNext - fn.durCount
	if start < 0 {
		start += len(fn.durBuf)
	}
	for i := 0; i < fn.durCount; i++ {
		out = append(out, fn.durBuf[(start+i)%len(fn.durBuf)])
	}
	return out
}

// Platform is the FaaS control plane plus data plane.
//
// Admission is lock-free on the platform level: request IDs come from an
// atomic counter and the function table sits behind an RWMutex, so invokes
// of different functions never serialize on platform-wide state — only
// Register/Unregister take the write lock. Per-function state is under the
// function's own mutex, held only for bookkeeping (never across cold-start
// placement, start latency or handler execution).
type Platform struct {
	clock simclock.Clock
	meter *billing.Meter

	mu        sync.RWMutex // guards functions, bare, cluster, penalty, adm
	functions map[fnKey]*function
	// bare indexes functions by unqualified name, maintained at
	// Register/Unregister time so bare-name lookup on the invoke hot path is
	// one map probe instead of a registry scan. A nil value marks a name
	// owned by several tenants (ErrAmbiguous).
	bare map[string]*function

	// adm is the per-tenant admission state (nil = admission off).
	adm *admission

	nextReq atomic.Int64

	cluster *scheduler.Cluster
	penalty float64 // slowdown per same-dominant co-resident

	// rng drives retry jitter. Seeded at construction so retry spacing is
	// deterministic under the virtual clock; guarded by rngMu.
	rngMu sync.Mutex
	rng   *rand.Rand

	// Pre-resolved observability handles; nil (all no-ops) until SetObs.
	obsReg         *obs.Registry // kept for per-function breaker gauges
	obsCold        *obs.Counter
	obsWarm        *obs.Counter
	obsThrottled   *obs.Counter
	obsTimeout     *obs.Counter
	obsFailure     *obs.Counter
	obsQueueWait   *obs.Histogram
	obsHandlerLat  *obs.Histogram
	obsInvokeLat   *obs.Histogram
	obsBreakerFast *obs.Counter
	obsBreakerOpen *obs.Counter
	obsRetryWait   *obs.Histogram
	obsAdmShed     *obs.Counter
	obsAdmWait     *obs.Histogram
	obsPrewarmed   *obs.Counter
	obsPlaceFail   *obs.Counter
	obsTracer      *obs.Tracer
	obsSLO         *obs.SLOEngine
	obsInvVec      *obs.CounterVec
	obsFailVec     *obs.CounterVec
	obsLatVec      *obs.HistogramVec
}

// New creates an empty Platform. meter may be nil to disable billing.
func New(clock simclock.Clock, meter *billing.Meter) *Platform {
	return &Platform{
		clock:     clock,
		meter:     meter,
		functions: map[fnKey]*function{},
		bare:      map[string]*function{},
		rng:       rand.New(rand.NewSource(0x7a05)),
	}
}

// SetObs attaches observability instruments. Handles are resolved once here
// so the invoke path touches only atomics; a nil registry yields nil
// instruments, whose methods are no-ops. Call before registering functions
// so their breaker gauges land in the registry.
func (p *Platform) SetObs(r *obs.Registry) {
	p.obsReg = r
	p.obsCold = r.Counter("faas.invoke.cold")
	p.obsWarm = r.Counter("faas.invoke.warm")
	p.obsThrottled = r.Counter("faas.invoke.throttled")
	p.obsTimeout = r.Counter("faas.invoke.timeout")
	p.obsFailure = r.Counter("faas.invoke.failure")
	p.obsQueueWait = r.Histogram("faas.queue.wait")
	p.obsHandlerLat = r.Histogram("faas.handler.latency")
	p.obsInvokeLat = r.Histogram("faas.invoke.latency")
	p.obsBreakerFast = r.Counter("faas.breaker.fastfail")
	p.obsBreakerOpen = r.Counter("faas.breaker.opened")
	p.obsRetryWait = r.Histogram("faas.retry.wait")
	p.obsAdmShed = r.Counter("faas.admission.shed")
	p.obsAdmWait = r.Histogram("faas.admission.wait")
	p.obsPrewarmed = r.Counter("faas.pool.prewarmed")
	p.obsPlaceFail = r.Counter("faas.pool.placefail")
	p.obsTracer = r.Tracer()
	p.obsSLO = r.SLO()
	p.obsInvVec = r.CounterVec("faas.tenant.invocations", "tenant", "function")
	p.obsFailVec = r.CounterVec("faas.tenant.failures", "tenant", "function")
	p.obsLatVec = r.HistogramVec("faas.tenant.latency", "tenant", "function")
	r.SetHelp("faas.tenant.invocations", "Invocations that reached a handler, by tenant and function.")
	r.SetHelp("faas.tenant.failures", "Handler failures and timeouts, by tenant and function.")
	r.SetHelp("faas.tenant.latency", "End-to-end invoke latency, by tenant and function.")
	r.SetHelp("faas.invoke.latency", "End-to-end invoke latency across all tenants.")
}

// Clock returns the platform's clock (handlers and triggers share it).
func (p *Platform) Clock() simclock.Clock { return p.clock }

// AttachCluster binds instance placement to a scheduler cluster: every
// instance occupies its function's Demand on a machine chosen by the
// cluster's policy, and invocations suffer a slowdown of
// 1 + penalty × (same-dominant co-residents) — making §6's bin-packing /
// performance-isolation trade-off measurable (experiments E19, E20). Attach
// before registering functions.
func (p *Platform) AttachCluster(c *scheduler.Cluster, penaltyPerContender float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cluster = c
	p.penalty = penaltyPerContender
}

// Cluster returns the attached cluster (nil if none).
func (p *Platform) Cluster() *scheduler.Cluster {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.cluster
}

// fnKey is the registry key for a tenant's function. Function names are a
// namespace per tenant: two tenants may each own a "resize". A struct key
// lets a tenant-scoped lookup probe the table without building a string.
type fnKey struct{ tenant, name string }

// lookupLocked resolves a function under p.mu. With a tenant, name resolves
// only within that tenant's namespace. Without one, name may be qualified
// ("tenant/name") or bare; a bare name resolves when exactly one tenant owns
// it — the whole pre-tenant-handle API keeps working unchanged — and fails
// with ErrAmbiguous once several tenants deploy the same name, at which point
// callers must qualify (or go through a TenantHandle, which always does).
// Every form is at most two map probes: the bare index is maintained at
// registration time, so the invoke hot path never scans the registry.
func (p *Platform) lookupLocked(tenant, name string) (*function, error) {
	if tenant != "" {
		if fn, ok := p.functions[fnKey{tenant, name}]; ok {
			return fn, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrNoFunction, tenant+"/"+name)
	}
	if t, n, ok := strings.Cut(name, "/"); ok {
		if fn, ok := p.functions[fnKey{t, n}]; ok {
			return fn, nil
		}
	}
	if fn, ok := p.bare[name]; ok {
		if fn == nil {
			return nil, fmt.Errorf("%w: %q", ErrAmbiguous, name)
		}
		return fn, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoFunction, name)
}

// rebuildBareLocked recomputes the bare-name index entry for name after a
// registration change. Called with p.mu held for writing; O(registry), but
// only on Unregister — never on the invoke path.
func (p *Platform) rebuildBareLocked(name string) {
	var hit *function
	ambiguous := false
	for _, fn := range p.functions {
		if fn.name == name {
			if hit != nil {
				ambiguous = true
			}
			hit = fn
		}
	}
	switch {
	case ambiguous:
		p.bare[name] = nil
	case hit != nil:
		p.bare[name] = hit
	default:
		delete(p.bare, name)
	}
}

func (p *Platform) lookup(tenant, name string) (*function, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.lookupLocked(tenant, name)
}

// Register adds a function owned by tenant. With Prewarm > 0, the
// provisioned instances are created (and placed) immediately. Names are
// scoped per tenant: registration collides only with the same tenant's own
// functions, never with (and without revealing) another tenant's.
func (p *Platform) Register(name, tenant string, handler Handler, cfg Config) error {
	key := fnKey{tenant, name}
	p.mu.Lock()
	if _, ok := p.functions[key]; ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	fn := &function{name: name, key: tenant + "/" + name, tenant: tenant, handler: handler, cfg: cfg.withDefaults(), platform: p}
	if fn.cfg.BreakerThreshold > 0 {
		fn.brkGauge = p.obsReg.Gauge("faas.breaker.state." + fn.key)
	}
	fn.lblInv = p.obsInvVec.With(tenant, name)
	fn.lblFail = p.obsFailVec.With(tenant, name)
	fn.lblLat = p.obsLatVec.With(tenant, name)
	fn.slo = p.obsSLO.Tenant(tenant)
	p.functions[key] = fn
	if _, taken := p.bare[name]; taken {
		p.bare[name] = nil // second tenant deployed the name: now ambiguous
	} else {
		p.bare[name] = fn
	}
	p.mu.Unlock()

	// Provisioned concurrency: instances exist before the first request.
	fn.mu.Lock()
	defer fn.mu.Unlock()
	now := p.clock.Now()
	for i := 0; i < fn.cfg.Prewarm; i++ {
		fn.nextInst++
		inst := &instance{id: fn.nextInst, idleSince: now}
		if err := p.placeInstance(fn, inst); err != nil {
			return err
		}
		fn.idle = append(fn.idle, inst)
	}
	if fn.cfg.Prewarm > 0 {
		fn.recordLocked(now)
	}
	return nil
}

// instKey identifies an instance in the attached cluster. Keyed by the
// tenant-qualified function key so two tenants' same-named functions never
// collide on cluster slots.
func instKey(fnKey string, id int64) string {
	return fmt.Sprintf("%s#%d", fnKey, id)
}

// placeInstance claims cluster capacity for a new instance (no-op without a
// cluster).
func (p *Platform) placeInstance(fn *function, inst *instance) error {
	if p.cluster == nil {
		return nil
	}
	demand := fn.cfg.Demand
	if demand == (scheduler.Resources{}) {
		demand = scheduler.Resources{CPU: 1000, MemMB: float64(fn.cfg.MemoryMB)}
	}
	_, err := p.cluster.PlaceTenant(instKey(fn.key, inst.id), fn.tenant, demand)
	return err
}

// releaseInstance returns an instance's cluster capacity (no-op without a
// cluster).
func (p *Platform) releaseInstance(fn *function, inst *instance) {
	if p.cluster != nil {
		_ = p.cluster.Release(instKey(fn.key, inst.id))
	}
}

// slowdownFor computes an instance's current interference multiplier.
func (p *Platform) slowdownFor(fn *function, inst *instance) float64 {
	if p.cluster == nil || p.penalty <= 0 {
		return 1
	}
	return 1 + p.penalty*float64(p.cluster.ContendersOf(instKey(fn.key, inst.id)))
}

// Unregister removes a function, releasing its idle instances' cluster
// capacity. tenant and name resolve as in Req: with a tenant, only that
// tenant's namespace is searched (another tenant's same-named function is
// untouched and unprobeable, ErrNoFunction either way); without one, name is
// bare or qualified as "tenant/name".
func (p *Platform) Unregister(tenant, name string) error {
	p.mu.Lock()
	fn, err := p.lookupLocked(tenant, name)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	delete(p.functions, fnKey{fn.tenant, fn.name})
	p.rebuildBareLocked(fn.name)
	p.mu.Unlock()

	fn.mu.Lock()
	defer fn.mu.Unlock()
	fn.gone = true
	for _, in := range fn.idle {
		p.releaseInstance(fn, in)
	}
	fn.idle = nil
	return nil
}

// Result describes one completed invocation.
type Result struct {
	Output    []byte
	Cold      bool          // the invocation paid a cold start
	Latency   time.Duration // end-to-end: queuing + start + execution
	Billed    time.Duration // duration billed (rounded up)
	RequestID int64
	Attempt   int           // 1-based attempt that produced this result
	RetryWait time.Duration // total backoff slept before this attempt
	TraceID   int64         // causal trace covering this invocation (0 = untraced)
	// Deduped marks a result served from the function's idempotency-key
	// dedup window: the handler did not run and nothing was billed.
	Deduped bool
}

// Req is one invocation request: which function, with what payload, in
// which causal context, under which idempotency key. It is the single
// argument of Invoke, InvokeAsync and InvokeWithRetry.
type Req struct {
	// Tenant scopes Name to that tenant's namespace: another tenant's
	// function of the same name is indistinguishable from an unregistered
	// one. Empty resolves Name bare, or qualified as "tenant/name".
	Tenant, Name string
	Payload      []byte
	// Trace is the inbound causal context: zero roots a new trace at this
	// invocation; a valid context (an orchestrate step, a consuming
	// function's handler span) attaches the invocation to the caller's trace.
	Trace obs.TraceCtx
	// IdemKey is the dedup-window key: on a function with a DedupWindow, a
	// key whose previous invocation succeeded inside the window is answered
	// from the cache (Result.Deduped) without executing or billing. Empty
	// means no key.
	IdemKey string
}

// Invoke runs a function synchronously and returns its result. The calling
// goroutine pays the start latency and execution time on the platform clock.
//
// Invoke is kept out of line on purpose. The gateway runs each sync invoke on
// a fresh goroutine whose stack first grows somewhere inside the handler;
// with this frame inlined, kvdb-metered handlers hit that growth inside the
// billing meter's mutex instead of before it, which raised gateway-mix p99
// latency from about 1.7 ms to 2.4 ms on a 2-CPU VM.
//
//go:noinline
func (p *Platform) Invoke(r Req) (Result, error) { return p.invoke(r, 1) }

// FunctionInfo summarizes one registered function for control-plane listings.
type FunctionInfo struct {
	Name   string
	Tenant string
	Config Config
}

// FunctionsFor lists tenant's registered functions, sorted by name. Only the
// tenant's own namespace is visible — the listing can never leak another
// tenant's deployments.
func (p *Platform) FunctionsFor(tenant string) []FunctionInfo {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]FunctionInfo, 0, 4)
	for _, fn := range p.functions {
		if fn.tenant == tenant {
			out = append(out, FunctionInfo{Name: fn.name, Tenant: fn.tenant, Config: fn.cfg})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (p *Platform) invoke(r Req, attempt int) (Result, error) {
	p.mu.RLock()
	fn, err := p.lookupLocked(r.Tenant, r.Name)
	adm := p.adm
	p.mu.RUnlock()
	if err != nil {
		return Result{}, err
	}
	reqID := p.nextReq.Add(1)

	// The invoke span roots a new trace (zero parent) or joins the caller's
	// (orchestrate step, async retry wrapper, nested invocation). It covers
	// admission, the breaker gate, queuing, and the handler, so shed and
	// fast-failed requests still yield a (failed) trace.
	span := p.obsTracer.Start(r.Trace, "faas.invoke")

	if len(r.Payload) > fn.cfg.MaxPayload {
		span.EndLabeled(fn.tenant, fn.name, true)
		return Result{}, fmt.Errorf("%w: %d > %d bytes", ErrPayloadSize, len(r.Payload), fn.cfg.MaxPayload)
	}

	// Dedup window: a key that already succeeded inside the window never
	// reaches admission, the breaker, the pool or the meter — the cached
	// reply *is* the invocation, which is what makes keyed retries
	// billing-invisible.
	if res, ok := fn.dedupLookup(r.IdemKey, p.clock.Now()); ok {
		res.RequestID = reqID
		res.Attempt = attempt
		res.Deduped = true
		res.TraceID = span.TraceID()
		span.EndLabeled(fn.tenant, fn.name, false)
		return res, nil
	}

	// Tenant admission: the fair-share token bucket gates (and may queue or
	// shed) the request before any breaker or concurrency state is touched.
	if err := p.admit(adm, fn.tenant); err != nil {
		fn.mu.Lock()
		fn.throttles++
		fn.mu.Unlock()
		span.EndLabeled(fn.tenant, fn.name, true)
		return Result{RequestID: reqID, Attempt: attempt, TraceID: span.TraceID()}, err
	}

	// Circuit-breaker gate: an open breaker sheds the request here, before
	// the concurrency-slot reservation below — fast-fail must not consume
	// capacity the healthy traffic could use.
	gated := fn.cfg.BreakerThreshold > 0
	var probe bool
	if gated {
		var ok bool
		ok, probe = fn.brk.allow(p.clock.Now(), fn.cfg.BreakerCooldown)
		if !ok {
			p.obsBreakerFast.Inc()
			span.EndLabeled(fn.tenant, fn.name, true)
			return Result{RequestID: reqID, Attempt: attempt, TraceID: span.TraceID()}, fmt.Errorf("%w: %q", ErrCircuitOpen, fn.name)
		}
		if probe {
			fn.brkGauge.Set(breakerHalfOpen.gaugeValue())
		}
	}

	start := p.clock.Now()
	qspan := p.obsTracer.Start(span.Ctx(), "faas.queue")

	// Acquire an instance: reuse a live warm one or reserve a cold slot.
	// The reservation (running++) happens under fn.mu so MaxConcurrency
	// holds, but cluster placement runs after the unlock: a slow cold-start
	// placement must not block warm acquisitions on sibling instances.
	fn.mu.Lock()
	fn.reapLocked(start)
	var inst *instance
	cold := false
	if n := len(fn.idle); n > 0 {
		inst = fn.idle[n-1]
		fn.idle = fn.idle[:n-1]
	} else {
		if fn.running+len(fn.idle)+fn.warming >= fn.cfg.MaxConcurrency {
			fn.throttles++
			fn.mu.Unlock()
			p.obsThrottled.Inc()
			if gated {
				p.recordBreaker(fn, outcomeAborted, probe)
			}
			qspan.EndErr(true)
			span.EndLabeled(fn.tenant, fn.name, true)
			return Result{TraceID: span.TraceID()}, fmt.Errorf("%w: %q at %d", ErrThrottled, fn.name, fn.cfg.MaxConcurrency)
		}
		fn.nextInst++
		inst = &instance{id: fn.nextInst}
		cold = true
		fn.coldStarts++
	}
	fn.running++
	fn.invocations++
	fn.recordLocked(start)
	fn.mu.Unlock()

	if cold {
		if err := p.placeWithBudget(fn, inst, start); err != nil {
			// Roll back the reservation; the instance ID is not reused.
			fn.mu.Lock()
			fn.running--
			fn.coldStarts--
			fn.invocations--
			fn.throttles++
			fn.recordLocked(start)
			fn.mu.Unlock()
			p.obsThrottled.Inc()
			if gated {
				p.recordBreaker(fn, outcomeAborted, probe)
			}
			qspan.EndErr(true)
			span.EndLabeled(fn.tenant, fn.name, true)
			if fn.cfg.ColdStartBudget > 0 {
				return Result{TraceID: span.TraceID()}, fmt.Errorf("%w: %q after %v: %v",
					ErrColdStartTimeout, fn.name, fn.cfg.ColdStartBudget, err)
			}
			return Result{TraceID: span.TraceID()}, fmt.Errorf("%w: %q: %v", ErrThrottled, fn.name, err)
		}
	}

	// Pay start latency.
	if cold {
		p.obsCold.Inc()
		p.clock.Sleep(fn.cfg.ColdStart)
	} else {
		p.obsWarm.Inc()
		p.clock.Sleep(fn.cfg.WarmStart)
	}
	execStart := p.clock.Now()
	p.obsQueueWait.Observe(execStart.Sub(start))
	qspan.End()

	// Execute with the time-limit budget. The invocation record comes from
	// the request pool; it is recycled (zeroed) as soon as the handler's
	// outcome has been read out, which is why handlers must not retain *Ctx.
	// The handler span's context rides in the pooled Ctx by value, so the
	// recycle cannot corrupt a trace the handler already propagated.
	hspan := p.obsTracer.Start(span.Ctx(), "faas.handler")
	req := getRequest()
	ctx := &req.ctx
	*ctx = Ctx{
		Clock:        p.clock,
		FunctionName: fn.name,
		Tenant:       fn.tenant,
		RequestID:    reqID,
		InstanceID:   inst.id,
		Attempt:      attempt,
		Trace:        hspan.Ctx(),
		budget:       fn.cfg.Timeout,
		slowdown:     p.slowdownFor(fn, inst),
	}
	out, err := fn.handler(ctx, r.Payload)
	timedOut := ctx.exceeded
	execDur := ctx.worked
	putRequest(req)
	if timedOut {
		err = fmt.Errorf("%w: %q after %v", ErrTimeout, fn.name, fn.cfg.Timeout)
		out = nil
	}
	hspan.EndErr(err != nil)

	end := p.clock.Now()
	p.obsHandlerLat.Observe(end.Sub(execStart))
	p.obsInvokeLat.ObserveTrace(end.Sub(start), span.TraceID())
	fn.lblInv.Inc()
	if err != nil {
		fn.lblFail.Inc()
	}
	fn.lblLat.ObserveTrace(end.Sub(start), span.TraceID())
	fn.slo.Record(end.Sub(start), err != nil)
	if execDur == 0 {
		// Handlers that do no modelled work still bill a minimum granule.
		execDur = time.Millisecond
	}
	if p.meter != nil {
		p.meter.AddInvocation(fn.tenant, execDur, fn.cfg.MemoryMB)
	}

	// Return the instance to the warm pool (even after handler errors; the
	// runtime survives user exceptions, as on real platforms).
	fn.mu.Lock()
	fn.running--
	inst.idleSince = end
	if fn.cfg.KeepAlive > 0 || fn.cfg.Prewarm > 0 {
		fn.idle = append(fn.idle, inst)
		fn.reapLocked(end)
	} else {
		p.releaseInstance(fn, inst)
	}
	fn.recordDurationLocked(end.Sub(start))
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			fn.timeouts++
			p.obsTimeout.Inc()
		}
		fn.failures++
		p.obsFailure.Inc()
	}
	fn.recordLocked(end)
	fn.mu.Unlock()

	if gated {
		out := outcomeSuccess
		if err != nil {
			out = outcomeFailure
		}
		p.recordBreaker(fn, out, probe)
	}

	span.EndLabeled(fn.tenant, fn.name, err != nil)

	res := Result{
		Output:    out,
		Cold:      cold,
		Latency:   end.Sub(start),
		Billed:    billing.BilledDuration(execDur),
		RequestID: reqID,
		Attempt:   attempt,
		TraceID:   span.TraceID(),
	}
	if err == nil {
		fn.dedupStore(r.IdemKey, res, end)
	}
	return res, err
}

// asyncRetryBase is the backoff before an async re-execution; it doubles per
// attempt up to the retry policy's cap (providers space retries out so
// transient failures can clear).
const asyncRetryBase = 500 * time.Millisecond

// InvokeAsync runs a function on its own goroutine, transparently
// re-executing it on failure up to the function's MaxRetries (§4.1: "most
// FaaS platforms re-execute functions transparently on failure"). It is
// InvokeWithRetry under the policy {MaxAttempts: MaxRetries+1, Base:
// asyncRetryBase}, so both modes share one loop, one backoff cap and one
// retry predicate. done, if non-nil, receives the final result; its Attempt
// and RetryWait fields surface how many executions it took and how long the
// retries backed off in total.
func (p *Platform) InvokeAsync(r Req, done func(Result, error)) {
	p.clock.Go(func() {
		pol := RetryPolicy{MaxAttempts: 1, Base: asyncRetryBase}
		if fn, err := p.lookup(r.Tenant, r.Name); err == nil {
			pol.MaxAttempts = fn.cfg.MaxRetries + 1
		}
		res, err := p.InvokeWithRetry(r, pol)
		if done != nil {
			done(res, err)
		}
	})
}

// reapLocked retires idle instances whose keep-alive lapsed, never dropping
// the idle pool below the provisioned (Prewarm) floor. Called with fn.mu
// held — on every acquire and release, so the steady-state scan (nothing
// expired) must not allocate; only an actual reap event builds slices.
func (fn *function) reapLocked(now time.Time) {
	if len(fn.idle) == 0 {
		return
	}
	anyExpired := false
	for _, in := range fn.idle {
		if !(fn.cfg.KeepAlive > 0 && now.Sub(in.idleSince) < fn.cfg.KeepAlive) {
			anyExpired = true
			break
		}
	}
	if !anyExpired {
		return
	}
	var kept, expired []*instance
	for _, in := range fn.idle {
		if fn.cfg.KeepAlive > 0 && now.Sub(in.idleSince) < fn.cfg.KeepAlive {
			kept = append(kept, in)
		} else {
			expired = append(expired, in)
		}
	}
	// Retain the most recently idle expired instances to hold the floor.
	if need := fn.cfg.Prewarm - len(kept); need > 0 {
		if need > len(expired) {
			need = len(expired)
		}
		kept = append(kept, expired[len(expired)-need:]...)
		expired = expired[:len(expired)-need]
	}
	for _, in := range expired {
		fn.platform.releaseInstance(fn, in)
	}
	fn.idle = kept
	if len(expired) > 0 {
		fn.recordLocked(now)
	}
}

// recordLocked samples the instance footprint for the scaling timeline,
// deduplicating by value: a warm acquire/release moves an instance between
// idle and running without changing the footprint, so steady-state traffic
// appends nothing. Consumers (experiment E2) reconstruct a step function
// from the timeline — "last point not after t" — which dedup preserves
// exactly.
func (fn *function) recordLocked(at time.Time) {
	n := fn.running + len(fn.idle)
	if k := len(fn.timeline); k > 0 && fn.timeline[k-1].Instances == n {
		return
	}
	fn.timeline = append(fn.timeline, ScalePoint{At: at, Instances: n})
}

// Stats is a snapshot of one function's counters.
type Stats struct {
	Invocations int64
	ColdStarts  int64
	Throttles   int64
	Timeouts    int64
	Failures    int64
	WarmIdle    int
	Running     int
	Warming     int
	// Durations holds the most recent durationWindow end-to-end invoke
	// latencies, oldest first.
	Durations []time.Duration
	Timeline  []ScalePoint
}

// Stats returns a snapshot for a function, with the warm pool reaped as of
// now (so WarmIdle reflects scale-to-zero). tenant and name resolve as in
// Unregister.
func (p *Platform) Stats(tenant, name string) (Stats, error) {
	fn, err := p.lookup(tenant, name)
	if err != nil {
		return Stats{}, err
	}
	fn.mu.Lock()
	defer fn.mu.Unlock()
	fn.reapLocked(p.clock.Now())
	return Stats{
		Invocations: fn.invocations,
		ColdStarts:  fn.coldStarts,
		Throttles:   fn.throttles,
		Timeouts:    fn.timeouts,
		Failures:    fn.failures,
		WarmIdle:    len(fn.idle),
		Running:     fn.running,
		Warming:     fn.warming,
		Durations:   fn.durationsLocked(),
		Timeline:    append([]ScalePoint{}, fn.timeline...),
	}, nil
}

// PercentileOK returns the q-th percentile (0..100) of ds, with ok=false
// when the window is empty — an empty window has no percentile, and callers
// that render one must say so rather than print a silent 0.
func PercentileOK(ds []time.Duration, q float64) (time.Duration, bool) {
	if len(ds) == 0 {
		return 0, false
	}
	s := append([]time.Duration{}, ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q / 100 * float64(len(s)-1))
	return s[idx], true
}

// Percentile returns the q-th percentile (0..100) of ds. It returns 0 for an
// empty slice; use PercentileOK to distinguish that from a real 0.
func Percentile(ds []time.Duration, q float64) time.Duration {
	v, _ := PercentileOK(ds, q)
	return v
}
