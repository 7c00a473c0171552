package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded by this package around a call into
// one layer's public function (or, for handlers, around benchmark code the
// platform calls), so nothing is traced inside the program.
const (
	spOp         uint8 = iota // one benchmark operation: the root of its trace
	spRoundtrip               // gateway.Client call: client → transport → server and back
	spServe                   // Gateway.ServeHTTP on a data-plane route
	spControl                 // Gateway.ServeHTTP on a control-plane route
	spFaasInvoke              // faas invocation, warm (length from Result.Latency or its header)
	spFaasCold                // faas invocation that paid a cold start
	spCoreInvoke              // core.TenantHandle.Invoke
	spHandler                 // a benchmark handler body run by faas
	spJiffyPut                // jiffy Namespace.Put
	spJiffyGet                // jiffy Namespace.Get
	spKvRead                  // kvdb RunTxn, read-only
	spKvWrite                 // kvdb RunTxn with a write
	spBlobGet                 // blob Store.Get
	spChain                   // orchestrate Engine.Execute of a Chain
	spSend                    // pulsar Producer.SendKey
	spDeliver                 // SendKey return → Pulsar function handler entry
	spFnHandler               // the Pulsar function body (sketch update)
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "client.roundtrip", "gateway.serve", "gateway.control", "faas.invoke",
	"faas.cold_invoke", "core.invoke", "handler", "jiffy.put", "jiffy.get",
	"kvdb.read_txn", "kvdb.write_txn", "blob.get", "orchestrate.chain",
	"pulsar.send", "pulsar.deliver", "pulsar_fn.handler",
}

// span is one recorded interval. Spans of one benchmark operation share
// trace; parent is the id of the enclosing span (0 for the root).
type span struct {
	trace, id, parent int64
	start, end        int64 // ns since the tracer's base
	name              uint8
}

// spanCap bounds the in-memory span buffer; spans past it are counted as
// dropped. Workloads sample operations so a run stays well below it.
const spanCap = 600_000

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	base   time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// now is the tracer clock: monotonic ns since the tracer's base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// at converts a wall-clock reading to the tracer clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

// id allocates a span id, so children recorded first can name a parent
// that is recorded when it ends.
func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// dump writes every span as CSV.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace,id,parent,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.trace, s.id, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats holds per-name durations and self times (ns). A span's self
// time is its length minus the part of it its children cover.
type spanStats struct {
	dur, self [numSpanNames][]int64
}

func (t *tracer) stats() *spanStats {
	spans := t.spans
	idx := make(map[int64]int32, len(spans))
	for i, s := range spans {
		idx[s.id] = int32(i)
	}
	// Children grouped by parent, in start order, for the interval union.
	kids := make([]int32, 0, len(spans))
	for i, s := range spans {
		if _, ok := idx[s.parent]; ok && s.parent != 0 {
			kids = append(kids, int32(i))
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		x, y := spans[kids[a]], spans[kids[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	covered := make(map[int64]int64, len(kids))
	for i := 0; i < len(kids); {
		pid := spans[kids[i]].parent
		p := spans[idx[pid]]
		var cov, curS, curE int64
		open := false
		for ; i < len(kids) && spans[kids[i]].parent == pid; i++ {
			c := spans[kids[i]]
			s, e := max(c.start, p.start), min(c.end, p.end)
			if e <= s {
				continue
			}
			if open && s <= curE {
				curE = max(curE, e)
				continue
			}
			if open {
				cov += curE - curS
			}
			curS, curE, open = s, e, true
		}
		if open {
			cov += curE - curS
		}
		covered[pid] = cov
	}
	st := &spanStats{}
	for _, s := range spans {
		d := s.end - s.start
		st.dur[s.name] = append(st.dur[s.name], d)
		st.self[s.name] = append(st.self[s.name], d-covered[s.id])
	}
	return st
}

// us is the nearest-rank q-quantile of ns samples, in µs.
func us(ns []int64, q float64) float64 { return pctMs(ns, q) * 1e3 }

// perLayerMetric is one entry of BENCHMARK.json's per_layer list.
type perLayerMetric struct{ name, unit string }

// perLayerMetrics is every per-layer metric a traced run prints. A metric a
// workload does not exercise reads 0, with sample count 0 on stderr.
var perLayerMetrics = []perLayerMetric{
	{"client.roundtrip_us.p50", "us"},
	{"client.roundtrip_us.p99", "us"},
	{"transport.self_us.p50", "us"},
	{"gateway.self_us.p50", "us"},
	{"gateway.control_us.p50", "us"},
	{"gateway.polls_per_async", "count"},
	{"faas.invoke_us.p50", "us"},
	{"faas.invoke_us.p99", "us"},
	{"faas.self_us.p50", "us"},
	{"faas.cold_invoke_us.p50", "us"},
	{"faas.warm_ratio", "ratio"},
	{"core.invoke_us.p50", "us"},
	{"core.invoke_us.p99", "us"},
	{"jiffy.put_us.p50", "us"},
	{"jiffy.get_us.p50", "us"},
	{"kvdb.read_txn_us.p50", "us"},
	{"kvdb.write_txn_us.p50", "us"},
	{"kvdb.attempts_per_commit", "ratio"},
	{"blob.get_us.p50", "us"},
	{"orchestrate.chain_us.p50", "us"},
	{"orchestrate.overhead_us.p50", "us"},
	{"pulsar.send_us.p50", "us"},
	{"pulsar.send_us.p99", "us"},
	{"pulsar.deliver_us.p50", "us"},
	{"pulsar.deliver_us.p99", "us"},
	{"pulsar.backlog_max", "count"},
	{"pulsar.dup_ratio", "ratio"},
	{"pulsar_fn.self_us.p50", "us"},
	{"process.allocs_per_op", "count"},
	{"process.alloc_bytes_per_op", "B"},
	{"process.cpu_us_per_op", "us"},
	{"process.gc_cycles", "count"},
	{"process.gc_pause_ms", "ms"},
	{"generator.lag_ms.p99", "ms"},
}

// spanLayers fills the span-derived per-layer metrics every workload shares:
// duration quantiles and self-time medians of the spans it recorded.
func spanLayers(st *spanStats, out map[string]float64, samples map[string]int) {
	dur := func(metric string, name uint8, q float64) {
		out[metric] = us(st.dur[name], q)
		samples[metric] = len(st.dur[name])
	}
	self := func(metric string, name uint8) {
		out[metric] = us(st.self[name], 0.5)
		samples[metric] = len(st.self[name])
	}
	dur("client.roundtrip_us.p50", spRoundtrip, 0.5)
	dur("client.roundtrip_us.p99", spRoundtrip, 0.99)
	self("transport.self_us.p50", spRoundtrip)
	self("gateway.self_us.p50", spServe)
	dur("gateway.control_us.p50", spControl, 0.5)
	dur("faas.invoke_us.p50", spFaasInvoke, 0.5)
	dur("faas.invoke_us.p99", spFaasInvoke, 0.99)
	self("faas.self_us.p50", spFaasInvoke)
	dur("faas.cold_invoke_us.p50", spFaasCold, 0.5)
	dur("core.invoke_us.p50", spCoreInvoke, 0.5)
	dur("core.invoke_us.p99", spCoreInvoke, 0.99)
	dur("jiffy.put_us.p50", spJiffyPut, 0.5)
	dur("jiffy.get_us.p50", spJiffyGet, 0.5)
	dur("kvdb.read_txn_us.p50", spKvRead, 0.5)
	dur("kvdb.write_txn_us.p50", spKvWrite, 0.5)
	dur("blob.get_us.p50", spBlobGet, 0.5)
	dur("orchestrate.chain_us.p50", spChain, 0.5)
	self("orchestrate.overhead_us.p50", spChain)
	dur("pulsar.send_us.p50", spSend, 0.5)
	dur("pulsar.send_us.p99", spSend, 0.99)
	dur("pulsar.deliver_us.p50", spDeliver, 0.5)
	dur("pulsar.deliver_us.p99", spDeliver, 0.99)
	self("pulsar_fn.self_us.p50", spFnHandler)
}

// printLadder prints each layer's median self time and its share of the
// end-to-end median latency (untraced), plus the tracing overhead. The op
// root (the benchmark's own loop) is not a layer and is left out.
func printLadder(workload string, st *spanStats, e2eP50ms float64, extra map[string]metric) {
	fmt.Fprintf(os.Stderr, "layer ladder, %s (median self time; share of the untraced end-to-end median %.4f ms)\n", workload, e2eP50ms)
	var sum float64
	for n := spOp + 1; n < numSpanNames; n++ {
		if len(st.self[n]) == 0 {
			continue
		}
		self := us(st.self[n], 0.5)
		share := 0.0
		if e2eP50ms > 0 {
			share = self / (e2eP50ms * 1e3)
		}
		sum += share
		fmt.Fprintf(os.Stderr, "  %-20s n=%-8d self p50 %10.2f us  span p50 %10.2f us  share %6.1f%%\n",
			spanNames[n], len(st.self[n]), self, us(st.dur[n], 0.5), 100*share)
	}
	fmt.Fprintf(os.Stderr, "  %-20s %56s %6.1f%%\n", "sum of shares", "", 100*sum)
	var keys []string
	for k := range extra {
		if strings.HasPrefix(k, "trace_overhead.") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-34s %+12.4f %s (traced %.4f, untraced %.4f)\n", k, extra[k].Value, extra[k].Unit,
			extra["traced."+strings.TrimPrefix(k, "trace_overhead.")].Value, extra["untraced."+strings.TrimPrefix(k, "trace_overhead.")].Value)
	}
}

// nowIf reads the tracer clock only when on.
func (t *tracer) nowIf(on bool) int64 {
	if !on {
		return 0
	}
	return t.now()
}

// recordIf records a span from start to now when on and returns now, the
// next sequential span's start.
func (t *tracer) recordIf(on bool, trace, parent int64, name uint8, start int64) int64 {
	if !on {
		return 0
	}
	end := t.now()
	t.record(span{trace: trace, id: t.id(), parent: parent, start: start, end: end, name: name})
	return end
}
