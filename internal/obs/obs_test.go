package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	// None of these may panic, and reads return zero values.
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(3)
	r.Gauge("g").Add(1)
	r.Histogram("h").Observe(time.Second)
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Fatalf("nil gauge value = %g", got)
	}
	if got := r.Histogram("h").Snapshot(); got.Count != 0 {
		t.Fatalf("nil histogram count = %d", got.Count)
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	sp := r.Tracer().Start(TraceCtx{}, "root")
	child := r.Tracer().Start(sp.Ctx(), "child")
	child.End()
	sp.EndAttrs(false, []Attr{{Key: "k", Value: "v"}})
	if spans := r.Tracer().Spans(); spans != nil {
		t.Fatalf("nil tracer returned spans")
	}
	if out, err := r.Tracer().ExportJSON(); err != nil || string(out) != "[]" {
		t.Fatalf("nil tracer export = %q, %v", out, err)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := New(nil)
	c := r.Counter("hits")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	r := New(nil)
	g := r.Gauge("pool")
	g.Set(10)
	g.Add(-2.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %g, want 7.5", got)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	r := New(nil)
	h := r.Histogram("lat")
	// 1..1000 ms, uniform: p50≈500ms, p95≈950ms, p99≈990ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	snap := h.Snapshot()
	if snap.Count != 1000 {
		t.Fatalf("count = %d", snap.Count)
	}
	wantSum := time.Duration(1000*1001/2) * time.Millisecond
	if snap.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", snap.Sum, wantSum)
	}
	check := func(name string, got, want time.Duration) {
		t.Helper()
		// Log-linear buckets guarantee ≤ 12.5% relative error.
		if err := math.Abs(float64(got-want)) / float64(want); err > 0.125 {
			t.Errorf("%s = %v, want ~%v (err %.1f%%)", name, got, want, err*100)
		}
	}
	check("p50", snap.P50, 500*time.Millisecond)
	check("p95", snap.P95, 950*time.Millisecond)
	check("p99", snap.P99, 990*time.Millisecond)
	if snap.Max != time.Second {
		t.Fatalf("max = %v, want 1s", snap.Max)
	}
}

func TestHistogramBucketsRoundTrip(t *testing.T) {
	// Every bucket's upper bound must map back into that bucket, and bucket
	// indices must be monotone in the observed value.
	for idx := 0; idx <= maxBucket; idx++ {
		up := bucketUpper(idx)
		if up == math.MaxInt64 {
			continue
		}
		if got := bucketOf(up); got != idx {
			t.Fatalf("bucketOf(bucketUpper(%d)=%d) = %d", idx, up, got)
		}
	}
	prev := -1
	for _, ns := range []int64{0, 1, 7, 8, 9, 100, 1e3, 1e6, 1e9, 1e12, math.MaxInt64} {
		idx := bucketOf(ns)
		if idx < prev {
			t.Fatalf("bucketOf not monotone at %d", ns)
		}
		prev = idx
	}
}

func TestTracerVirtualClockDeterministic(t *testing.T) {
	run := func() []SpanData {
		v := simclock.NewVirtual()
		defer v.Close()
		r := New(v)
		v.Run(func() {
			root := r.Tracer().Start(TraceCtx{}, "exec")
			v.Sleep(10 * time.Millisecond)
			child := r.Tracer().Start(root.Ctx(), "step")
			v.Sleep(30 * time.Millisecond)
			child.EndAttrs(false, []Attr{{Key: "target", Value: "fn"}})
			root.End()
		})
		return r.Tracer().Spans()
	}
	a, b := run(), run()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("traces differ across identical runs:\n%s\n%s", ja, jb)
	}
	if len(a) != 2 {
		t.Fatalf("got %d spans, want 2", len(a))
	}
	// Completion order: child first.
	if a[0].Name != "step" || a[0].Duration != 30*time.Millisecond {
		t.Fatalf("child span = %+v", a[0])
	}
	if a[1].Name != "exec" || a[1].Duration != 40*time.Millisecond {
		t.Fatalf("root span = %+v", a[1])
	}
	if a[0].TraceID != a[1].TraceID || a[0].ParentID != a[1].SpanID {
		t.Fatalf("span lineage wrong: %+v / %+v", a[0], a[1])
	}
}

func TestTracerSpanCap(t *testing.T) {
	r := New(nil)
	tr := r.Tracer()
	tr.SetMaxSpans(10)
	for i := 0; i < 25; i++ {
		tr.Start(TraceCtx{}, "s").End()
	}
	if got := len(tr.Spans()); got != 10 {
		t.Fatalf("retained %d spans, want 10", got)
	}
	if got := tr.Dropped(); got != 15 {
		t.Fatalf("dropped = %d, want 15", got)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 {
		t.Fatalf("reset did not clear")
	}
}

func TestPrometheusAndJSONExport(t *testing.T) {
	r := New(nil)
	r.Counter("faas.invoke.cold").Add(3)
	r.Gauge("jiffy.blocks.inuse").Set(12)
	r.Histogram("faas.invoke.latency").Observe(250 * time.Millisecond)

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE faas_invoke_cold counter",
		"faas_invoke_cold 3",
		"# TYPE jiffy_blocks_inuse gauge",
		"jiffy_blocks_inuse 12",
		"# TYPE faas_invoke_latency_seconds summary",
		`faas_invoke_latency_seconds{quantile="0.99"}`,
		"faas_invoke_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
		t.Fatalf("json dump not parseable: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 3 {
		t.Fatalf("json counters = %+v", snap.Counters)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := New(nil)
	r.Counter("hits").Inc()
	r.Tracer().Start(TraceCtx{}, "root").End()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":      "hits 1",
		"/metrics.json": `"hits"`,
		"/trace":        `"root"`,
		"/debug/pprof/": "profile",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s: response missing %q", path, want)
		}
	}
}
