package faas

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
)

// failing returns a handler that fails while healthy is 0.
func failing(healthy *int64) Handler {
	return func(ctx *Ctx, payload []byte) ([]byte, error) {
		if atomic.LoadInt64(healthy) == 0 {
			return nil, errors.New("boom")
		}
		return []byte("ok"), nil
	}
}

// TestBreakerOpensAndFastFails pins the acceptance criterion: once the
// breaker opens, every invoke fast-fails with ErrCircuitOpen without
// reserving a concurrency slot (the invocation counter — incremented only
// after slot reservation — must not move).
func TestBreakerOpensAndFastFails(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	reg := obs.New(v)
	p.SetObs(reg)
	var healthy int64
	must(t, p.Register("f", "t", failing(&healthy), Config{
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	}))
	v.Run(func() {
		for i := 0; i < 3; i++ {
			if _, err := p.Invoke(Req{Name: "f"}); err == nil {
				t.Error("want handler failure")
			}
		}
		if st, _ := p.BreakerState("f"); st != "open" {
			t.Errorf("breaker state = %q, want open", st)
		}
		before, _ := p.Stats("f")
		fastFails := 0
		for i := 0; i < 100; i++ {
			if _, err := p.Invoke(Req{Name: "f"}); errors.Is(err, ErrCircuitOpen) {
				fastFails++
			}
		}
		if fastFails < 95 {
			t.Errorf("fast-fails = %d/100, want >= 95", fastFails)
		}
		after, _ := p.Stats("f")
		if after.Invocations != before.Invocations {
			t.Errorf("open breaker consumed slots: invocations %d -> %d", before.Invocations, after.Invocations)
		}
	})
	if got := reg.CounterValue("faas.breaker.fastfail"); got < 95 {
		t.Errorf("faas.breaker.fastfail = %d, want >= 95", got)
	}
	if got := reg.CounterValue("faas.breaker.opened"); got != 1 {
		t.Errorf("faas.breaker.opened = %d, want 1", got)
	}
	snap := reg.Snapshot()
	found := false
	for _, g := range snap.Gauges {
		if g.Name == "faas.breaker.state.f" && g.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Error("faas.breaker.state.f gauge not 1 (open) in snapshot")
	}
}

// TestBreakerHalfOpenProbeRecloses: after the cooldown a single probe runs;
// when the handler has recovered the breaker re-closes and traffic flows.
func TestBreakerHalfOpenProbeRecloses(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var healthy int64
	must(t, p.Register("f", "t", failing(&healthy), Config{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Second,
	}))
	v.Run(func() {
		p.Invoke(Req{Name: "f"})
		p.Invoke(Req{Name: "f"})
		if _, err := p.Invoke(Req{Name: "f"}); !errors.Is(err, ErrCircuitOpen) {
			t.Errorf("err = %v, want ErrCircuitOpen", err)
		}
		atomic.StoreInt64(&healthy, 1)
		v.Sleep(2 * time.Second)
		// The next invoke is the half-open probe; it succeeds and re-closes.
		if res, err := p.Invoke(Req{Name: "f"}); err != nil || string(res.Output) != "ok" {
			t.Errorf("probe invoke = %q, %v", res.Output, err)
		}
		if st, _ := p.BreakerState("f"); st != "closed" {
			t.Errorf("state after probe = %q, want closed", st)
		}
		if _, err := p.Invoke(Req{Name: "f"}); err != nil {
			t.Errorf("invoke after re-close: %v", err)
		}
	})
}

// TestBreakerProbeFailureReopens: a failed probe puts the breaker straight
// back to open for another cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var healthy int64
	must(t, p.Register("f", "t", failing(&healthy), Config{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Second,
	}))
	v.Run(func() {
		p.Invoke(Req{Name: "f"}) // opens
		v.Sleep(2 * time.Second)
		if _, err := p.Invoke(Req{Name: "f"}); err == nil || errors.Is(err, ErrCircuitOpen) {
			t.Errorf("probe err = %v, want handler failure", err)
		}
		if st, _ := p.BreakerState("f"); st != "open" {
			t.Errorf("state after failed probe = %q, want open", st)
		}
		if _, err := p.Invoke(Req{Name: "f"}); !errors.Is(err, ErrCircuitOpen) {
			t.Errorf("err = %v, want ErrCircuitOpen", err)
		}
	})
}

// TestInvokeWithRetryBacksOff: the retry policy sleeps doubling backoffs and
// surfaces Attempt/RetryWait in the result.
func TestInvokeWithRetryBacksOff(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var calls int64
	flaky := func(ctx *Ctx, payload []byte) ([]byte, error) {
		if atomic.AddInt64(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}
	must(t, p.Register("f", "t", flaky, Config{}))
	v.Run(func() {
		res, err := p.InvokeWithRetry(Req{Name: "f"}, RetryPolicy{
			MaxAttempts: 5,
			Base:        100 * time.Millisecond,
			Jitter:      -1, // exact backoffs
		})
		if err != nil {
			t.Errorf("InvokeWithRetry: %v", err)
		}
		if res.Attempt != 3 {
			t.Errorf("Attempt = %d, want 3", res.Attempt)
		}
		if res.RetryWait != 300*time.Millisecond {
			t.Errorf("RetryWait = %v, want 300ms (100 + 200)", res.RetryWait)
		}
	})
}

// TestInvokeWithRetryStopsOnNonRetryable: errors a retry cannot fix return
// after a single attempt — including an open breaker, which exists to shed
// load, not attract it.
func TestInvokeWithRetryStopsOnNonRetryable(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var healthy int64
	must(t, p.Register("f", "t", failing(&healthy), Config{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	}))
	v.Run(func() {
		if _, err := p.InvokeWithRetry(Req{Name: "nope"}, RetryPolicy{}); !errors.Is(err, ErrNoFunction) {
			t.Errorf("err = %v, want ErrNoFunction", err)
		}
		p.Invoke(Req{Name: "f"}) // opens the breaker
		start := v.Now()
		res, err := p.InvokeWithRetry(Req{Name: "f"}, RetryPolicy{MaxAttempts: 5, Base: time.Second})
		if !errors.Is(err, ErrCircuitOpen) {
			t.Errorf("err = %v, want ErrCircuitOpen", err)
		}
		if res.Attempt != 1 {
			t.Errorf("Attempt = %d, want 1 (no retries against an open breaker)", res.Attempt)
		}
		if waited := v.Now().Sub(start); waited != 0 {
			t.Errorf("retry loop slept %v against an open breaker", waited)
		}
	})
}

// TestRetryJitterDeterministic: two identically seeded platforms produce
// identical jittered retry spacing — the property the chaos soak relies on.
func TestRetryJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		v := simclock.NewVirtual()
		defer v.Close()
		p := New(v, nil)
		alwaysFail := func(ctx *Ctx, payload []byte) ([]byte, error) {
			return nil, errors.New("boom")
		}
		must(t, p.Register("f", "t", alwaysFail, Config{MaxRetries: -1}))
		var waits []time.Duration
		v.Run(func() {
			for i := 0; i < 4; i++ {
				res, _ := p.InvokeWithRetry(Req{Name: "f"}, RetryPolicy{MaxAttempts: 3, Base: 50 * time.Millisecond})
				waits = append(waits, res.RetryWait)
			}
		})
		return waits
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] <= 0 {
			t.Fatalf("RetryWait[%d] = %v, want > 0", i, a[i])
		}
	}
}

// TestAsyncRetryJitterBounds: async retries back off 500ms·2^k with up to
// 20% equal jitter, and the callback's Result surfaces Attempt and
// RetryWait.
func TestAsyncRetryJitterBounds(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var calls int64
	flaky := func(ctx *Ctx, payload []byte) ([]byte, error) {
		if atomic.AddInt64(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return nil, nil
	}
	must(t, p.Register("f", "t", flaky, Config{MaxRetries: 2}))
	var final Result
	v.Run(func() {
		done := make(chan struct{})
		p.InvokeAsync(Req{Name: "f"}, func(res Result, err error) {
			final = res
			if err != nil {
				t.Errorf("async retry failed: %v", err)
			}
			close(done)
		})
		v.BlockOn(func() { <-done })
	})
	if final.Attempt != 3 {
		t.Fatalf("Attempt = %d, want 3", final.Attempt)
	}
	// Waits: U(400,500]ms + U(800,1000]ms ⇒ total in (1200ms, 1500ms].
	if final.RetryWait <= 1200*time.Millisecond || final.RetryWait > 1500*time.Millisecond {
		t.Fatalf("RetryWait = %v, want in (1200ms, 1500ms]", final.RetryWait)
	}
}
