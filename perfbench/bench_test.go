package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/sketch"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func testConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		clients: min(2, runtime.NumCPU()), outDir: t.TempDir(), commit: "test",
	}
}

// applies lists, per workload, the per-layer metrics it must measure as
// non-zero; the others read 0 because the workload bypasses their layer.
var applies = map[string][]string{
	"gateway-mix": {
		"client.roundtrip_us.", "transport.", "gateway.", "faas.", "kvdb.read_txn_us.",
		"blob.", "process.allocs", "process.alloc_bytes", "process.cpu",
	},
	"invoke-state": {
		"faas.", "core.", "jiffy.", "kvdb.", "orchestrate.",
		"process.allocs", "process.alloc_bytes", "process.cpu",
	},
	"stream-countmin": {
		"pulsar.", "pulsar_fn.", "generator.",
		"process.allocs", "process.alloc_bytes", "process.cpu",
	},
}

// TestEveryMetricEmitted runs each workload briefly, untraced and traced,
// and checks the result line carries exactly the metrics BENCHMARK.json
// names, with their units, and that every layer a workload exercises was
// measured.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		mk, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, trace := range []bool{false, true} {
			rep, err := run(testConfig(t, w.Name, trace), mk)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			r := rep.result
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.Name, trace, r.Correct, r.Attempted, r.Failed, rep.problems)
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			got := map[string]string{}
			for k, m := range r.Metrics {
				got[k] = m.Unit
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, k, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json wants %v", w.Name, trace, got, want)
			}
			if !trace {
				continue
			}
			for k, m := range r.Metrics {
				for _, prefix := range applies[w.Name] {
					if strings.HasPrefix(k, prefix) && m.Value <= 0 {
						t.Errorf("%s: per-layer metric %s = %v, want > 0", w.Name, k, m.Value)
					}
				}
			}
		}
	}
}

// TestStreamCheckRejectsCorruption corrupts a correct stream-countmin
// result in several ways and expects the checker to reject each.
func TestStreamCheckRejectsCorruption(t *testing.T) {
	w := newStreamCountMin(testConfig(t, "stream-countmin", false))
	inst, err := w.setup()
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	ph := inst.run(time.Second, nil)
	if ph.failed != 0 {
		t.Fatalf("clean run failed: %v", ph.problems)
	}
	in := inst.(*scInst)

	expectBad := func(what string, problems []string, want string) {
		t.Helper()
		for _, p := range problems {
			if strings.Contains(p, want) {
				return
			}
		}
		t.Errorf("%s: checker said %q, want a problem mentioning %q", what, problems, want)
	}
	k := in.pacedFrom + 17
	in.calls[k] = 0
	expectBad("dropped event", in.check(), "never processed")
	in.calls[k] = 2
	expectBad("duplicated event", in.check(), "more than once")
	in.calls[k] = 1
	if p := in.check(); len(p) != 0 {
		t.Fatalf("restored result rejected: %v", p)
	}

	stream := in.w.keys[:in.sent]
	crossings := in.crossings()
	if len(crossings) == 0 {
		t.Fatal("no crossings published")
	}
	expectBad("lost crossing", checkSketches(stream, in.cm, in.ss, crossings[1:]), "never published")
	expectBad("repeated crossing", checkSketches(stream, in.cm, in.ss, append(crossings, crossings[0])), "published twice")
	expectBad("false crossing", checkSketches(stream, in.cm, in.ss, append(crossings, "key-9999@10000")), "is below it")

	// A sketch that missed one event undercounts its key.
	cm, ss := sketch.NewCountMin(scEpsilon, scDelta), sketch.NewSpaceSaving(scSpaceSaving)
	for _, key := range stream[1:] {
		cm.Add(key, 1)
		ss.Add(key, 1)
	}
	expectBad("sketch missed an event", checkSketches(stream, cm, ss, crossings), "count-min")
}

// TestGatewayCheckRejectsWrongEchoByte redeploys every tenant's echo
// function with a handler that flips one byte and expects the run to fail.
func TestGatewayCheckRejectsWrongEchoByte(t *testing.T) {
	w := newGatewayMix(testConfig(t, "gateway-mix", false))
	inst, err := w.setup()
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	in := inst.(*gwInst)
	in.exec.Bind("flip-echo", func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		out := append([]byte(nil), payload...)
		out[len(out)/2] ^= 1
		return out, nil
	})
	for _, api := range in.cls[0].api {
		if err := api.Delete("echo"); err != nil {
			t.Fatal(err)
		}
		if err := api.Register(gwSpec("echo", "flip-echo")); err != nil {
			t.Fatal(err)
		}
	}
	ph := inst.run(time.Second, nil)
	if ph.failed == 0 {
		t.Fatal("a run with a corrupting echo passed its checks")
	}
	for _, p := range ph.problems {
		if strings.Contains(p, " echo: output mismatch") {
			return
		}
	}
	t.Errorf("problems %q name no echo mismatch", ph.problems)
}

// TestInputsFromSeed checks every workload's inputs are a function of the
// seed alone.
func TestInputsFromSeed(t *testing.T) {
	inputs := func(w benchWorkload) any {
		switch w := w.(type) {
		case *gatewayMix:
			return []any{w.ops, w.products, w.expected, w.echo, w.bulk}
		case *invokeState:
			return []any{w.ops, w.values, w.chainIn}
		case *streamCountMin:
			return w.keys
		}
		t.Fatalf("unknown workload type %T", w)
		return nil
	}
	cfg := testConfig(t, "", false)
	for name, mk := range workloads {
		a, b := inputs(mk(cfg)), inputs(mk(cfg))
		cfg.seed++
		c := inputs(mk(cfg))
		cfg.seed--
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two different inputs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: two seeds gave the same inputs", name)
		}
	}
}
