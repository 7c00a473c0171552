package faas

import (
	"errors"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/errs"
	"repro/internal/scheduler"
	"repro/internal/simclock"
)

// TestAdmissionShedAndFairness reproduces the multi-tenant isolation claim:
// an attacker firing a 40-wide burst is shed down to its fair share while a
// victim tenant's steady trickle is never throttled, and every shed request
// is itemized on the attacker's bill.
func TestAdmissionShedAndFairness(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	meter := billing.NewMeter()
	p := New(v, meter)
	must(t, p.Register("atk", "attacker", echo, Config{}))
	must(t, p.Register("vic", "victim", echo, Config{}))
	p.SetAdmission(AdmissionConfig{RatePerSecond: 20, Burst: 4, MaxQueue: 4, MaxWait: 500 * time.Millisecond})

	var atkErrs []error
	v.Run(func() {
		vicOffsets := make([]time.Duration, 10)
		for i := range vicOffsets {
			vicOffsets[i] = time.Duration(i) * 200 * time.Millisecond
		}
		atkRep := Drive(p, "atk", nil, make([]time.Duration, 40))
		vicRep := Drive(p, "vic", nil, vicOffsets)
		atkRep.Wait()
		vicRep.Wait()
		atkErrs = atkRep.Errors()
		if n := len(vicRep.Errors()); n != 0 {
			t.Errorf("victim saw %d errors: %v", n, vicRep.Errors()[0])
		}
	})

	// Burst 4 admitted instantly + MaxQueue 4 queued; the other 32 shed.
	if got := p.AdmissionShed("attacker"); got != 32 {
		t.Errorf("attacker shed = %d, want 32", got)
	}
	if got := p.AdmissionAdmitted("attacker"); got != 8 {
		t.Errorf("attacker admitted = %d, want 8", got)
	}
	if got := p.AdmissionShed("victim"); got != 0 {
		t.Errorf("victim shed = %d, want 0", got)
	}
	if got := p.AdmissionAdmitted("victim"); got != 10 {
		t.Errorf("victim admitted = %d, want 10", got)
	}
	if len(atkErrs) != 32 {
		t.Fatalf("attacker errors = %d, want 32", len(atkErrs))
	}
	for _, err := range atkErrs {
		if !errors.Is(err, ErrTenantThrottled) {
			t.Fatalf("shed error %v does not match ErrTenantThrottled", err)
		}
		if !errors.Is(err, errs.ErrThrottled) {
			t.Fatalf("shed error %v does not match platform errs.ErrThrottled", err)
		}
		if errors.Is(err, ErrThrottled) {
			t.Fatalf("tenant shed %v must not match the concurrency-cap ErrThrottled", err)
		}
	}
	// Shedding is visible to billing, free but itemized.
	if got := meter.Units("attacker", billing.ResShedRequests); got != 32 {
		t.Errorf("billed shed units = %v, want 32", got)
	}
	if got := meter.Units("victim", billing.ResShedRequests); got != 0 {
		t.Errorf("victim billed shed units = %v, want 0", got)
	}
}

// TestAdmissionQueueDeterministic: arrivals beyond the burst reserve future
// tokens and sleep until their refill instant, so a same-instant burst
// drains at exactly the admitted rate under the virtual clock.
func TestAdmissionQueueDeterministic(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("q", "t", echo, Config{}))
	p.SetAdmission(AdmissionConfig{RatePerSecond: 10, Burst: 1, MaxQueue: 10, MaxWait: 10 * time.Second})

	v.Run(func() {
		start := v.Now()
		rep := Drive(p, "q", nil, make([]time.Duration, 4))
		rep.Wait()
		if n := len(rep.Errors()); n != 0 {
			t.Fatalf("errors = %d, want 0", n)
		}
		// 1 token instantly, then refills at 10/s: the 4th admit lands at
		// t=300ms. Everything before that would mean queuing didn't pace.
		if el := v.Now().Sub(start); el < 300*time.Millisecond {
			t.Errorf("burst drained in %v, want ≥ 300ms of token pacing", el)
		}
	})
	if got := p.AdmissionAdmitted("t"); got != 4 {
		t.Errorf("admitted = %d, want 4", got)
	}
	if got := p.AdmissionShed("t"); got != 0 {
		t.Errorf("shed = %d, want 0", got)
	}
}

// TestAdmissionDisable: a zero rate turns admission back off.
func TestAdmissionDisable(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("f", "t", echo, Config{}))
	p.SetAdmission(AdmissionConfig{RatePerSecond: 1, Burst: 1, MaxQueue: 1, MaxWait: time.Millisecond})
	p.SetAdmission(AdmissionConfig{})
	v.Run(func() {
		rep := Drive(p, "f", nil, make([]time.Duration, 20))
		rep.Wait()
		if n := len(rep.Errors()); n != 0 {
			t.Fatalf("errors with admission disabled = %d, want 0", n)
		}
	})
	if got := p.AdmissionShed("t"); got != 0 {
		t.Errorf("shed = %d, want 0", got)
	}
}

// TestSetTenantLimitWeights: a heavier weight buys a larger share of the
// platform rate — the heavy tenant's queued burst drains twice as fast.
func TestSetTenantLimitWeights(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("heavy", "gold", echo, Config{}))
	must(t, p.Register("light", "bronze", echo, Config{}))
	p.SetAdmission(AdmissionConfig{RatePerSecond: 30, Burst: 1, MaxQueue: 20, MaxWait: time.Minute})
	p.SetTenantLimit("gold", TenantLimit{Weight: 2})
	p.SetTenantLimit("bronze", TenantLimit{Weight: 1})

	var heavyDone, lightDone time.Duration
	v.Run(func() {
		start := v.Now()
		heavyRep := Drive(p, "heavy", nil, make([]time.Duration, 10))
		lightRep := Drive(p, "light", nil, make([]time.Duration, 10))
		heavyRep.Wait()
		heavyDone = v.Now().Sub(start)
		lightRep.Wait()
		lightDone = v.Now().Sub(start)
	})
	// gold's share is 20/s, bronze's 10/s: the same 10-wide burst takes
	// gold about half as long to drain.
	if heavyDone >= lightDone {
		t.Errorf("gold (w=2) drained in %v, bronze (w=1) in %v; want gold faster", heavyDone, lightDone)
	}
}

// TestSetPoolTarget drives the pool up and down: growth provisions warm
// instances asynchronously, shrinkage trims idle instances but never below
// the Prewarm floor, and growth is capped by MaxConcurrency.
func TestSetPoolTarget(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("pw", "t", echo, Config{
		ColdStart: 100 * time.Millisecond, Prewarm: 1, KeepAlive: time.Hour,
	}))
	v.Run(func() {
		v.Sleep(time.Millisecond) // let Register's own prewarm settle
		started, err := p.SetPoolTarget("pw", 3)
		must(t, err)
		if started != 2 { // prewarm already holds 1 idle
			t.Fatalf("started = %d, want 2", started)
		}
		st, _ := p.Stats("pw")
		if st.Warming != 2 {
			t.Fatalf("warming = %d, want 2", st.Warming)
		}
		v.Sleep(200 * time.Millisecond) // cold starts complete
		st, _ = p.Stats("pw")
		if st.Warming != 0 || st.WarmIdle != 3 {
			t.Fatalf("after warmup: warming=%d idle=%d, want 0/3", st.Warming, st.WarmIdle)
		}
		if tgt, ok := p.PoolTarget("pw"); !ok || tgt != 3 {
			t.Fatalf("PoolTarget = %d,%v, want 3,true", tgt, ok)
		}
		// Trim to zero: the Prewarm floor of 1 holds.
		released, err := p.SetPoolTarget("pw", 0)
		must(t, err)
		if released != -2 {
			t.Fatalf("released = %d, want -2 (floor keeps 1)", released)
		}
		st, _ = p.Stats("pw")
		if st.WarmIdle != 1 {
			t.Fatalf("idle after trim = %d, want the Prewarm floor of 1", st.WarmIdle)
		}
	})

	// Growth is capped by MaxConcurrency.
	must(t, p.Register("capped", "t", echo, Config{MaxConcurrency: 2, ColdStart: time.Millisecond}))
	v.Run(func() {
		started, err := p.SetPoolTarget("capped", 5)
		must(t, err)
		if started != 2 {
			t.Fatalf("started = %d, want MaxConcurrency cap of 2", started)
		}
	})

	if _, err := p.SetPoolTarget("ghost", 1); !errors.Is(err, ErrNoFunction) {
		t.Fatalf("err = %v, want ErrNoFunction", err)
	}
	if _, ok := p.PoolTarget("ghost"); ok {
		t.Fatal("PoolTarget(ghost) ok = true")
	}
}

// TestLoadsSnapshot: Loads reports per-function load sorted by name with
// the fields the autoscaler consumes.
func TestLoadsSnapshot(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("zeta", "t2", echo, Config{KeepAlive: time.Minute}))
	must(t, p.Register("alpha", "t1", worker(50*time.Millisecond), Config{
		KeepAlive: 30 * time.Second, Prewarm: 0, MemoryMB: 256,
	}))
	v.Run(func() {
		rep := Drive(p, "alpha", nil, make([]time.Duration, 3))
		rep.Wait()
	})
	loads := p.Loads()
	if len(loads) != 2 || loads[0].Name != "alpha" || loads[1].Name != "zeta" {
		t.Fatalf("loads = %+v, want [alpha zeta]", loads)
	}
	a := loads[0]
	if a.Tenant != "t1" || a.Invocations != 3 || a.WarmIdle != 3 {
		t.Errorf("alpha load = %+v", a)
	}
	if a.KeepAlive != 30*time.Second {
		t.Errorf("alpha keep-alive = %v", a.KeepAlive)
	}
	if a.Demand.MemMB != 256 {
		t.Errorf("alpha demand = %+v, want MemoryMB default applied", a.Demand)
	}
	if a.Pool() != 3 {
		t.Errorf("alpha pool = %d, want 3", a.Pool())
	}
}

// TestColdStartBudget: a cold invocation that finds the cluster full waits
// inside its budget for capacity, succeeding when capacity frees in time
// and failing with ErrColdStartTimeout when it does not.
func TestColdStartBudget(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	// One machine, two 2000-CPU slots, no growth.
	cluster := scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, onlyOneMachine{})
	p.AttachCluster(cluster, 0)
	demand := scheduler.Resources{CPU: 2000, MemMB: 512}
	must(t, p.Register("hog", "t", echo, Config{Demand: demand, KeepAlive: time.Hour, ColdStart: time.Millisecond}))
	must(t, p.Register("late", "t", echo, Config{
		Demand: demand, ColdStartBudget: 200 * time.Millisecond,
		ColdStart: time.Millisecond, MaxRetries: -1,
	}))
	must(t, p.Register("strict", "t", echo, Config{Demand: demand, MaxRetries: -1}))

	v.Run(func() {
		// Fill the machine with two prewarmed hog instances.
		if n, err := p.SetPoolTarget("hog", 2); err != nil || n != 2 {
			t.Fatalf("prewarm hog: n=%d err=%v", n, err)
		}
		v.Sleep(10 * time.Millisecond)

		// Without a budget the cold placement fails immediately.
		start := v.Now()
		_, err := p.Invoke(Req{Name: "strict"})
		if !errors.Is(err, ErrThrottled) {
			t.Fatalf("no-budget err = %v, want ErrThrottled", err)
		}
		if el := v.Now().Sub(start); el > 50*time.Millisecond {
			t.Fatalf("no-budget failure took %v, want immediate", el)
		}

		// With a budget and no relief, the invocation fails only after the
		// budget lapses, with the typed timeout sentinel.
		start = v.Now()
		_, err = p.Invoke(Req{Name: "late"})
		if !errors.Is(err, ErrColdStartTimeout) || !errors.Is(err, errs.ErrColdStartTimeout) {
			t.Fatalf("budget err = %v, want ErrColdStartTimeout", err)
		}
		if el := v.Now().Sub(start); el < 150*time.Millisecond {
			t.Fatalf("budget failure took %v, want ≈200ms of retrying", el)
		}

		// Capacity freed inside the budget rescues the invocation.
		v.Go(func() {
			v.Sleep(50 * time.Millisecond)
			if _, err := p.SetPoolTarget("hog", 0); err != nil {
				t.Errorf("trim hog: %v", err)
			}
		})
		res, err := p.Invoke(Req{Name: "late"})
		must(t, err)
		if !res.Cold {
			t.Fatal("rescued invocation should be cold")
		}
	})
}

// TestPercentileOK: the empty-window percentile is explicit, not a silent 0.
func TestPercentileOK(t *testing.T) {
	if v, ok := PercentileOK(nil, 99); ok || v != 0 {
		t.Fatalf("PercentileOK(nil) = %v,%v, want 0,false", v, ok)
	}
	ds := []time.Duration{4 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	if v, ok := PercentileOK(ds, 50); !ok || v != 2*time.Millisecond {
		t.Fatalf("p50 = %v,%v", v, ok)
	}
	if v, ok := PercentileOK(ds, 100); !ok || v != 4*time.Millisecond {
		t.Fatalf("p100 = %v,%v", v, ok)
	}
	// The legacy wrapper keeps its 0-on-empty contract.
	if Percentile(nil, 99) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
}
