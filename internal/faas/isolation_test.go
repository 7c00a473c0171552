package faas

import (
	"testing"
	"time"

	"repro/internal/scheduler"
	"repro/internal/simclock"
)

func TestIsolationPresetsOrdered(t *testing.T) {
	isos := Isolations()
	if len(isos) != 4 {
		t.Fatalf("presets = %d", len(isos))
	}
	for i := 1; i < len(isos); i++ {
		if isos[i].ColdStart >= isos[i-1].ColdStart {
			t.Fatalf("cold start not decreasing at %s", isos[i].Name)
		}
		if isos[i].MemOverheadMB >= isos[i-1].MemOverheadMB {
			t.Fatalf("overhead not decreasing at %s", isos[i].Name)
		}
	}
}

func TestIsolationApply(t *testing.T) {
	cfg := MicroVM.Apply(Config{MemoryMB: 256})
	if cfg.ColdStart != MicroVM.ColdStart {
		t.Fatalf("cold start = %v", cfg.ColdStart)
	}
	if cfg.Demand.MemMB != 256+float64(MicroVM.MemOverheadMB) {
		t.Fatalf("demand mem = %v", cfg.Demand.MemMB)
	}
	// Zero memory defaults to 128 before overhead.
	cfg = Unikernel.Apply(Config{})
	if cfg.Demand.MemMB != 128+float64(Unikernel.MemOverheadMB) {
		t.Fatalf("default-mem demand = %v", cfg.Demand.MemMB)
	}
	// Pre-set demand keeps its CPU and gains only the overhead.
	cfg = Container.Apply(Config{Demand: scheduler.Resources{CPU: 500, MemMB: 100}})
	if cfg.Demand.CPU != 500 || cfg.Demand.MemMB != 100+float64(Container.MemOverheadMB) {
		t.Fatalf("custom demand = %+v", cfg.Demand)
	}
}

func TestIsolationDensity(t *testing.T) {
	if d := Unikernel.Density(128, 16384); d != 16384/(128+4) {
		t.Fatalf("unikernel density = %d", d)
	}
	if d := Container.Density(128, 16384); d != 16384/(128+128) {
		t.Fatalf("container density = %d", d)
	}
	if d := Container.Density(-200, 16384); d != 0 {
		t.Fatalf("degenerate density = %d", d)
	}
}

func TestCtxAccessors(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	var remaining time.Duration
	var timedOut bool
	var slowdown float64
	h := func(ctx *Ctx, _ []byte) ([]byte, error) {
		ctx.Work(100 * time.Millisecond)
		remaining = ctx.Remaining()
		timedOut = ctx.TimedOut()
		slowdown = ctx.Slowdown()
		return nil, nil
	}
	must(t, p.Register("f", "t", h, Config{Timeout: time.Second}))
	v.Run(func() {
		_, err := p.Invoke(Req{Name: "f"})
		must(t, err)
	})
	if remaining != 900*time.Millisecond {
		t.Fatalf("remaining = %v", remaining)
	}
	if timedOut {
		t.Fatal("spurious timeout")
	}
	if slowdown != 1 {
		t.Fatalf("slowdown = %v without a cluster", slowdown)
	}
	if p.Clock() != simclock.Clock(v) {
		t.Fatal("Clock accessor wrong")
	}
	if p.Cluster() != nil {
		t.Fatal("Cluster should be nil when unattached")
	}
}

func TestPrewarmedUnregisterReleasesCluster(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cluster := scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, scheduler.FirstFit{})
	p.AttachCluster(cluster, 0)
	must(t, p.Register("pw", "t", echo, Config{Prewarm: 3}))
	if cluster.ActiveMachines() == 0 {
		t.Fatal("prewarmed instances not placed")
	}
	must(t, p.Unregister("pw"))
	if cluster.ActiveMachines() != 0 {
		t.Fatalf("unregister left %d machines active", cluster.ActiveMachines())
	}
	if p.Cluster() != cluster {
		t.Fatal("Cluster accessor wrong")
	}
}
