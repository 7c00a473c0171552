package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/faas"
)

func TestTenantHandle(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	acme := p.Tenant("acme")
	rival := p.Tenant("rival")
	if acme.Name() != "acme" || acme.Platform() != p {
		t.Fatal("handle identity")
	}

	must(t, acme.Register("resize", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		ctx.Work(50 * time.Millisecond)
		return in, nil
	}, faas.Config{MemoryMB: 512}))

	v.Run(func() {
		res, err := acme.Invoke("resize", []byte("img"))
		must(t, err)
		if string(res.Output) != "img" {
			t.Fatalf("output = %q", res.Output)
		}

		// Another tenant cannot invoke — or distinguish from nonexistent.
		if _, err := rival.Invoke("resize", nil); !errors.Is(err, faas.ErrNoFunction) {
			t.Fatalf("cross-tenant invoke err = %v, want ErrNoFunction", err)
		}
		if _, err := acme.Invoke("ghost", nil); !errors.Is(err, faas.ErrNoFunction) {
			t.Fatalf("missing-function err = %v, want ErrNoFunction", err)
		}

		// Async path honors the same scoping.
		got := make(chan error, 1)
		rival.InvokeAsync("resize", nil, func(_ faas.Result, err error) { got <- err })
		v.BlockOn(func() {
			if err := <-got; !errors.Is(err, faas.ErrNoFunction) {
				t.Errorf("cross-tenant async err = %v, want ErrNoFunction", err)
			}
		})
		done := make(chan error, 1)
		acme.InvokeAsync("resize", []byte("x"), func(_ faas.Result, err error) { done <- err })
		v.BlockOn(func() {
			if err := <-done; err != nil {
				t.Errorf("own async invoke: %v", err)
			}
		})
	})

	// The invocation shows up on the handle's invoice.
	inv := acme.Invoice()
	if inv.Tenant != "acme" || inv.Total <= 0 {
		t.Fatalf("invoice = %+v", inv)
	}
	if rival.Invoice().Total != 0 {
		t.Fatal("rival billed for acme's work")
	}

	// Limits + Shed round-trip through admission.
	p.FaaS.SetAdmission(faas.AdmissionConfig{RatePerSecond: 1, Burst: 1, MaxWait: time.Nanosecond})
	acme.Limits(faas.TenantLimit{Weight: 2})
	v.Run(func() {
		_, _ = acme.Invoke("resize", nil)
		_, _ = acme.Invoke("resize", nil)
	})
	if acme.Shed() != 1 {
		t.Fatalf("shed = %d, want 1", acme.Shed())
	}
	if got := p.Meter.Units("acme", billing.ResShedRequests); got != 1 {
		t.Fatalf("billed shed units = %v, want 1", got)
	}
}

// TestTenantNamespacedFunctionNames: function names are a namespace per
// tenant. Two tenants each own a "resize" without colliding — registration
// neither fails nor reveals that the other tenant's name exists — and each
// handle's Invoke resolves to its own tenant's deployment. The bare-name
// legacy surface reports the shared name as ambiguous instead of silently
// picking a tenant.
func TestTenantNamespacedFunctionNames(t *testing.T) {
	p, v := NewVirtual(Options{})
	defer v.Close()
	acme := p.Tenant("acme")
	evil := p.Tenant("evil")
	mk := func(out string) faas.Handler {
		return func(ctx *faas.Ctx, in []byte) ([]byte, error) { return []byte(out), nil }
	}
	must(t, acme.Register("resize", mk("acme"), faas.Config{}))
	must(t, evil.Register("resize", mk("evil"), faas.Config{}))
	if err := evil.Register("resize", mk("again"), faas.Config{}); !errors.Is(err, faas.ErrExists) {
		t.Fatalf("same-tenant re-register = %v, want ErrExists", err)
	}
	v.Run(func() {
		for _, tc := range []struct {
			h    *TenantHandle
			want string
		}{{acme, "acme"}, {evil, "evil"}} {
			res, err := tc.h.Invoke("resize", nil)
			if err != nil || string(res.Output) != tc.want {
				t.Fatalf("%s.Invoke(resize) = %q, %v", tc.h.Name(), res.Output, err)
			}
		}
		// Cross-tenant names stay unprobeable.
		if _, err := acme.Invoke("missing", nil); !errors.Is(err, faas.ErrNoFunction) {
			t.Fatalf("missing = %v", err)
		}
		// The tenant-unscoped bare faas lookup cannot pick a winner.
		if _, err := p.FaaS.Invoke(faas.Req{Name: "resize"}); !errors.Is(err, faas.ErrAmbiguous) {
			t.Fatalf("bare Invoke(resize) = %v, want ErrAmbiguous", err)
		}
		// ...but a "tenant/name" qualified name still resolves exactly.
		if res, err := p.FaaS.Invoke(faas.Req{Name: "evil/resize"}); err != nil || string(res.Output) != "evil" {
			t.Fatalf("qualified Invoke(evil/resize) = %q, %v", res.Output, err)
		}
	})
	if _, ok := p.FaaS.PoolTarget("acme/resize"); !ok {
		t.Fatal("qualified PoolTarget lookup failed")
	}
}
