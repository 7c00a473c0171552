package faas

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/simclock"
)

// TestRetryBreakerTripBillingConsistent pins the contract between the retry
// loop, the breaker and the meter: with a threshold of 3 and an always-failing
// handler, InvokeWithRetry's first three attempts execute (and bill), the
// third trips the breaker, and the fourth fast-fails with ErrCircuitOpen —
// ending the loop immediately. The Result's Attempt count and the billed
// faas:requests must tell the same story: 4 attempts issued, 3 executions
// billed.
func TestRetryBreakerTripBillingConsistent(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	meter := billing.NewMeter()
	p := New(v, meter)
	var healthy int64
	must(t, p.Register("f", "acme", failing(&healthy), Config{
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	}))
	v.Run(func() {
		res, err := p.InvokeWithRetry(Req{Name: "f"}, RetryPolicy{
			MaxAttempts: 5,
			Base:        time.Millisecond,
			Jitter:      -1,
		})
		if !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("err = %v, want ErrCircuitOpen", err)
		}
		if res.Attempt != 4 {
			t.Errorf("res.Attempt = %d, want 4 (three executions + the fast-fail)", res.Attempt)
		}
		st, _ := p.Stats("", "f")
		if st.Invocations != 3 {
			t.Errorf("executions = %d, want 3", st.Invocations)
		}
		if got := meter.Units("acme", billing.ResInvocationReqs); got != 3 {
			t.Errorf("billed faas:requests = %v, want 3 (the fast-failed attempt must not bill)", got)
		}
	})
}

// TestDedupWindowServesCachedResult: on a function with a DedupWindow, a
// second invoke presenting the same idempotency key is served from the cache
// — no execution, no billing, Result.Deduped set — while a fresh key and a
// key past the window re-execute.
func TestDedupWindowServesCachedResult(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	meter := billing.NewMeter()
	p := New(v, meter)
	var execs int64
	must(t, p.Register("f", "acme", func(ctx *Ctx, payload []byte) ([]byte, error) {
		atomic.AddInt64(&execs, 1)
		return []byte("ok"), nil
	}, Config{DedupWindow: time.Minute}))
	v.Run(func() {
		r1, err := p.Invoke(Req{Name: "f", IdemKey: "k1"})
		must(t, err)
		if r1.Deduped {
			t.Error("first keyed invoke must execute, not dedup")
		}
		r2, err := p.Invoke(Req{Name: "f", IdemKey: "k1"})
		must(t, err)
		if !r2.Deduped {
			t.Error("duplicate key inside the window must be served from cache")
		}
		if string(r2.Output) != "ok" {
			t.Errorf("cached output = %q, want %q", r2.Output, "ok")
		}
		if r3, err := p.Invoke(Req{Name: "f", IdemKey: "k2"}); err != nil || r3.Deduped {
			t.Errorf("fresh key: err=%v deduped=%v, want execution", err, r3.Deduped)
		}
		if got := atomic.LoadInt64(&execs); got != 2 {
			t.Errorf("executions = %d, want 2", got)
		}
		if got := meter.Units("acme", billing.ResInvocationReqs); got != 2 {
			t.Errorf("billed faas:requests = %v, want 2 (deduped invoke must not bill)", got)
		}
		// Past the window the key executes again.
		v.Sleep(2 * time.Minute)
		r4, err := p.Invoke(Req{Name: "f", IdemKey: "k1"})
		must(t, err)
		if r4.Deduped {
			t.Error("key past the window must re-execute")
		}
		if got := atomic.LoadInt64(&execs); got != 3 {
			t.Errorf("executions after expiry = %d, want 3", got)
		}
	})
}

// TestDedupNeverCachesFailures: a failed keyed attempt must not poison the
// window — the retry that could fix it has to reach the handler.
func TestDedupNeverCachesFailures(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var healthy int64
	must(t, p.Register("f", "acme", failing(&healthy), Config{DedupWindow: time.Minute}))
	v.Run(func() {
		if _, err := p.Invoke(Req{Name: "f", IdemKey: "k"}); err == nil {
			t.Fatal("want handler failure")
		}
		atomic.StoreInt64(&healthy, 1)
		res, err := p.Invoke(Req{Name: "f", IdemKey: "k"})
		must(t, err)
		if res.Deduped {
			t.Error("retry after failure was deduped; failures must not be cached")
		}
		if string(res.Output) != "ok" {
			t.Errorf("output = %q, want %q", res.Output, "ok")
		}
	})
}

// TestRetryDecideLostReply: a Decide predicate that re-invokes after success
// (a client that lost the reply) double-executes a plain function but not a
// dedup-windowed one — the second attempt of the keyed retry is served from
// the cache.
func TestRetryDecideLostReply(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var plain, keyed int64
	count := func(n *int64) Handler {
		return func(ctx *Ctx, payload []byte) ([]byte, error) {
			atomic.AddInt64(n, 1)
			return []byte("ok"), nil
		}
	}
	must(t, p.Register("plain", "acme", count(&plain), Config{}))
	must(t, p.Register("keyed", "acme", count(&keyed), Config{DedupWindow: time.Minute}))
	lostReply := RetryPolicy{
		MaxAttempts: 2,
		Base:        time.Millisecond,
		Jitter:      -1,
		Decide:      func(attempt int, res Result, err error) bool { return attempt < 2 },
	}
	v.Run(func() {
		res, err := p.InvokeWithRetry(Req{Name: "plain"}, lostReply)
		must(t, err)
		if res.Attempt != 2 || atomic.LoadInt64(&plain) != 2 {
			t.Errorf("plain: attempt=%d execs=%d, want 2/2 (lost reply re-executes)", res.Attempt, plain)
		}
		res, err = p.InvokeWithRetry(Req{Name: "keyed", IdemKey: "req-1"}, lostReply)
		must(t, err)
		if res.Attempt != 2 || !res.Deduped {
			t.Errorf("keyed: attempt=%d deduped=%v, want attempt 2 served from cache", res.Attempt, res.Deduped)
		}
		if got := atomic.LoadInt64(&keyed); got != 1 {
			t.Errorf("keyed executions = %d, want 1", got)
		}
	})
}
