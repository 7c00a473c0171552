package faas

import (
	"testing"
	"time"

	"repro/internal/scheduler"
	"repro/internal/simclock"
)

func TestPrewarmEliminatesColdStarts(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("hot", "t", worker(10*time.Millisecond), Config{
		Prewarm: 4, ColdStart: 500 * time.Millisecond, WarmStart: time.Millisecond,
	}))
	v.Run(func() {
		// Four concurrent first requests: all should hit warm instances.
		rep := Drive(p, "hot", nil, make([]time.Duration, 4))
		rep.Wait()
		for _, r := range rep.Results() {
			if r.Cold {
				t.Errorf("prewarmed function paid a cold start: %+v", r)
			}
		}
	})
	st, _ := p.Stats("hot")
	if st.ColdStarts != 0 {
		t.Fatalf("cold starts = %d, want 0", st.ColdStarts)
	}
}

func TestPrewarmFloorSurvivesReaping(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	must(t, p.Register("floor", "t", echo, Config{Prewarm: 2, KeepAlive: time.Minute}))
	v.Run(func() {
		// Burst to 6 instances.
		rep := Drive(p, "floor", nil, make([]time.Duration, 6))
		rep.Wait()
		v.Sleep(10 * time.Minute) // way past keep-alive
		st, _ := p.Stats("floor")
		if st.WarmIdle != 2 {
			t.Errorf("warm idle = %d, want the Prewarm floor of 2", st.WarmIdle)
		}
	})
}

func TestClusterPlacementAndRelease(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cluster := scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, scheduler.FirstFit{})
	p.AttachCluster(cluster, 0)
	must(t, p.Register("placed", "acme", worker(time.Second), Config{
		MemoryMB: 1024, KeepAlive: time.Minute,
	}))
	v.Run(func() {
		rep := Drive(p, "placed", nil, make([]time.Duration, 3))
		rep.Wait()
		if got := cluster.ActiveMachines(); got == 0 {
			t.Error("no machines active while instances warm")
		}
		v.Sleep(5 * time.Minute) // keep-alive lapses → instances released
		p.Stats("placed")        // force reap
		if got := cluster.ActiveMachines(); got != 0 {
			t.Errorf("machines still active after scale-to-zero: %d", got)
		}
	})
}

func TestClusterCapacityThrottles(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	// One machine only fits two 2000-CPU instances; one-machine template.
	cluster := scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, onlyOneMachine{})
	p.AttachCluster(cluster, 0)
	must(t, p.Register("tight", "t", worker(time.Second), Config{
		Demand: scheduler.Resources{CPU: 2000, MemMB: 512}, KeepAlive: time.Hour, MaxRetries: -1,
	}))
	v.Run(func() {
		rep := Drive(p, "tight", nil, make([]time.Duration, 3))
		rep.Wait()
		if len(rep.Errors()) != 1 {
			t.Errorf("errors = %d, want 1 (third instance unplaceable)", len(rep.Errors()))
		}
	})
}

// onlyOneMachine is a test policy that refuses to grow beyond machine 0.
type onlyOneMachine struct{}

func (onlyOneMachine) Name() string { return "one-machine" }
func (onlyOneMachine) Choose(machines []*scheduler.Machine, demand scheduler.Resources, _ string) int {
	if len(machines) == 0 {
		return -1 // create the single machine
	}
	// Always answer machine 0: when it has no room, the cluster rejects
	// the placement (finite capacity) instead of growing.
	return 0
}

func TestInterferenceSlowdown(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	p := New(v, nil)
	cluster := scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, scheduler.FirstFit{})
	p.AttachCluster(cluster, 0.5) // +50% per contender
	must(t, p.Register("noisy", "t", worker(time.Second), Config{
		Demand:    scheduler.Resources{CPU: 1000, MemMB: 512}, // cpu-dominant; 4 fit per machine
		KeepAlive: time.Hour,
		ColdStart: time.Millisecond,
		WarmStart: time.Millisecond,
	}))
	v.Run(func() {
		// Alone: 1s of work takes 1s.
		res, err := p.Invoke(Req{Name: "noisy"})
		must(t, err)
		if res.Latency > 1100*time.Millisecond {
			t.Errorf("solo latency %v", res.Latency)
		}
		// Four concurrent instances on one machine: 3 contenders each →
		// slowdown 2.5× → ~2.5s.
		rep := Drive(p, "noisy", nil, make([]time.Duration, 4))
		rep.Wait()
		sawSlow := false
		for _, r := range rep.Results() {
			if r.Latency > 2*time.Second {
				sawSlow = true
			}
		}
		if !sawSlow {
			t.Error("no invocation suffered interference slowdown")
		}
	})
}
