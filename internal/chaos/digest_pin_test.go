package chaos_test

// Digest pins: the determinism tests elsewhere compare two runs of one
// binary, so a refactor that shifts a digest consistently still passes them.
// These goldens pin the digests themselves, across commits. Regenerate with
// `go test ./internal/chaos -run TestDigestPins -update` only after an
// intentional behaviour change, and say so in the change description.

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/conform"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/orchestrate"
	"repro/internal/sebs"
	"repro/internal/simclock"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestDigestPins(t *testing.T) {
	t.Run("conform", func(t *testing.T) {
		var b strings.Builder
		for _, ref := range conform.References() {
			rep, err := conform.Explore(ref.Workload, conform.Options{MaxSchedules: 60, Parallelism: 2})
			if err != nil {
				t.Fatalf("%s: %v", ref.Workload.Name, err)
			}
			fmt.Fprintf(&b, "%s explore=%016x baseline=%016x explored=%d conformant=%v",
				rep.Workload, rep.ExploreDigest, rep.BaselineDigest, rep.Explored, rep.Conformant)
			if w := rep.Witness; w != nil {
				fmt.Fprintf(&b, " witness=%016x", w.Digest)
			}
			b.WriteByte('\n')
		}
		checkGolden(t, "conform_explore.txt", []byte(b.String()))
	})
	t.Run("chaos-trace-soak", func(t *testing.T) {
		if testing.Short() {
			t.Skip("chaos trace soak skipped in -short")
		}
		digest, _ := chaos.RunTraceSoak(t, chaos.TraceSoakSeed)
		checkGolden(t, "chaos_trace_soak.txt", []byte(digest+"\n"))
	})
	t.Run("sebs-report", func(t *testing.T) {
		rep, err := sebs.Run(sebs.Config{Requests: 8, ColdEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "sebs_report.json", append(out, '\n'))
	})
	t.Run("orchestrate-trace", func(t *testing.T) {
		checkGolden(t, "orchestrate_trace.txt", []byte(orchestrateTrace(t)))
	})
}

// orchestrateTrace runs one succeeding and one failing traced execution that
// between them reach every span-emitting interpreter (task, retry, catch,
// parallel, choice, map, wait) and returns the tracer's canonical text.
func orchestrateTrace(t *testing.T) string {
	v := simclock.NewVirtual()
	defer v.Close()
	reg := obs.New(v)
	p := faas.New(v, nil)
	p.SetObs(reg)
	e := orchestrate.NewEngine(p)
	e.SetObs(reg)

	var flakyCalls atomic.Int64
	fns := map[string]faas.Handler{
		"double": func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			ctx.Work(5 * time.Millisecond)
			return append(in, in...), nil
		},
		"flaky": func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			ctx.Work(2 * time.Millisecond)
			if flakyCalls.Add(1) == 1 {
				return nil, errors.New("transient")
			}
			return in, nil
		},
		"broken": func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			ctx.Work(time.Millisecond)
			return nil, errors.New("always fails")
		},
		"items": func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			return []byte(`["a","b","c"]`), nil
		},
	}
	for _, name := range []string{"broken", "double", "flaky", "items"} {
		cfg := faas.Config{ColdStart: 3 * time.Millisecond, MaxRetries: -1}
		if err := p.Register(name, "acme", fns[name], cfg); err != nil {
			t.Fatal(err)
		}
	}

	always := func([]byte) bool { return true }
	never := func([]byte) bool { return false }
	ok := orchestrate.Chain(
		orchestrate.Task("double"),
		orchestrate.TaskRetry("flaky", orchestrate.RetryPolicy{MaxAttempts: 3, Interval: 10 * time.Millisecond}),
		orchestrate.TaskCatch("broken", orchestrate.RetryPolicy{MaxAttempts: 2, Interval: 5 * time.Millisecond},
			orchestrate.Task("double")),
		orchestrate.Parallel(orchestrate.Task("double"), orchestrate.Wait(4*time.Millisecond)),
		orchestrate.Choice([]orchestrate.ChoiceBranch{
			{When: never, Then: orchestrate.Fail("unreachable")},
			{When: always, Then: orchestrate.Task("items")},
		}, nil),
		orchestrate.Map(orchestrate.Task("double"), 2),
	)
	failing := orchestrate.Choice([]orchestrate.ChoiceBranch{{When: never, Then: orchestrate.Pass(nil)}},
		orchestrate.TaskRetry("broken", orchestrate.RetryPolicy{MaxAttempts: 2, Interval: time.Millisecond}))

	v.Run(func() {
		if _, _, err := e.ExecuteTraced(ok, []byte("x")); err != nil {
			t.Errorf("succeeding execution: %v", err)
		}
		if _, err := e.Execute(failing, []byte("y")); err == nil {
			t.Error("failing execution succeeded")
		}
	})
	return reg.Tracer().CanonicalText()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "digest_pins", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
