package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// benchWorkload builds platform instances from the inputs it generated from
// the seed when it was constructed.
type benchWorkload interface {
	// setup builds, registers, seeds and warms one platform instance. Its
	// wall time is the setup_s metric.
	setup() (instance, error)
	// layers derives the workload's per-layer metrics from a traced phase.
	layers(ph *phase, st *spanStats, out map[string]float64, samples map[string]int)
}

// instance is one set-up platform, measured once and then closed.
type instance interface {
	// run drives the measured phase for d, then checks every output. tr is
	// nil on untraced runs.
	run(d time.Duration, tr *tracer) *phase
	close()
}

// phase is what one measured phase produced.
type phase struct {
	attempted, failed int64
	// lat holds per-op latencies in ns (stream-countmin: paced events), and
	// at when each op ended (stream-countmin: was due), in ns since t0.
	lat, at []int64
	t0      time.Time
	// bursts, when set, are what throughput is taken over
	// (stream-countmin's backlog part); otherwise it is the op rate.
	bursts []burst
	// steal is the host steal sampled while the phase ran.
	steal    *stealSampler
	problems []string
	// counters the workload measured outside spans (poll counts, retries,
	// backlog), keyed by per-layer metric name.
	counts map[string]float64
	// ops is the completed op count.
	ops int64

	heapMB float64
	// proc is the process cost of the measured phase, or of the part of it
	// a workload measured itself, over procOps ops.
	proc    procDelta
	procOps int64
}

// opLog is one closed-loop client's record of its ops.
type opLog struct {
	t0          time.Time // when the phase began
	lat, at     []int64
	ops, failed int64
	problems    []string
}

// reset empties the log for a phase of up to capacity ops; the caller sets
// t0 when the phase begins.
func (l *opLog) reset(capacity int) {
	*l = opLog{lat: make([]int64, 0, capacity), at: make([]int64, 0, capacity)}
}

// done records one op that ran from start to end.
func (l *opLog) done(start, end time.Time, err error) {
	l.ops++
	l.lat = append(l.lat, int64(end.Sub(start)))
	l.at = append(l.at, int64(end.Sub(l.t0)))
	if err != nil {
		l.failed++
		if len(l.problems) < 10 {
			l.problems = append(l.problems, err.Error())
		}
	}
}

// merge adds a client's ops to the phase.
func (ph *phase) merge(l *opLog) {
	ph.ops += l.ops
	ph.attempted += l.ops
	ph.lat = append(ph.lat, l.lat...)
	ph.at = append(ph.at, l.at...)
	for _, p := range l.problems {
		ph.fail("%s", p)
	}
	ph.failed += l.failed - int64(len(l.problems))
}

// burst is a stretch of work timed as one: ops completed in [start, end].
type burst struct {
	start, end time.Time
	ops        int64
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.problems) < 20 {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

// procDelta is process-wide cost over the measured phase.
type procDelta struct {
	mallocs, bytes uint64
	cpu            time.Duration
	gcs            uint32
	pause          time.Duration
}

type procSnap struct {
	ms  runtime.MemStats
	cpu time.Duration
}

func snapProc() procSnap {
	var s procSnap
	runtime.ReadMemStats(&s.ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

func (a procSnap) to(b procSnap) procDelta {
	return procDelta{
		mallocs: b.ms.Mallocs - a.ms.Mallocs,
		bytes:   b.ms.TotalAlloc - a.ms.TotalAlloc,
		cpu:     b.cpu - a.cpu,
		gcs:     b.ms.NumGC - a.ms.NumGC,
		pause:   time.Duration(b.ms.PauseTotalNs - a.ms.PauseTotalNs),
	}
}

func (a procDelta) plus(b procDelta) procDelta {
	return procDelta{a.mallocs + b.mallocs, a.bytes + b.bytes, a.cpu + b.cpu, a.gcs + b.gcs, a.pause + b.pause}
}

// measure runs one instance's measured phase with process accounting and
// the end-of-phase live-heap reading.
func measure(inst instance, d time.Duration, tr *tracer) *phase {
	runtime.GC()
	before := snapProc()
	steal := startSteal()
	ph := inst.run(d, tr)
	steal.finish()
	ph.steal = steal
	if ph.procOps == 0 {
		ph.proc, ph.procOps = before.to(snapProc()), ph.ops
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return ph
}

// setupRuns is how many times a run sets the platform up; setup_s is their
// median, and the last instance is the one measured.
const setupRuns = 5

// report is a run's outcome: the contract's JSON line plus what goes only
// to stderr and the result file.
type report struct {
	result   result
	samples  map[string]int
	problems []string
	extra    map[string]metric
}

func run(cfg config, mk func(config) benchWorkload) (*report, error) {
	start := time.Now()
	w := mk(cfg) // every input is generated here, before any timing
	fmt.Fprintf(os.Stderr, "perfbench: inputs generated in %v\n", time.Since(start).Round(time.Millisecond))

	setupS := make([]float64, 0, setupRuns)
	var inst instance
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			in.close()
		} else {
			inst = in
		}
	}
	rep := &report{samples: map[string]int{}, extra: map[string]metric{}}
	d := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		ph := measure(inst, d, nil)
		inst.close()
		rep.result = endToEnd(ph, medianF(setupS), rep.samples)
		rep.problems = ph.problems
		rep.extra["error_ratio"] = metric{float64(ph.failed) / float64(max(ph.attempted, 1)), "ratio"}
		rep.extra["host_steal_pct"] = metric{100 * ph.steal.overall(), "%"}
		printSummary(cfg, rep)
		return rep, nil
	}

	// Traced run: an untraced half and a traced half, each on its own
	// instance, so the tracing overhead is the difference of the two.
	plain := measure(inst, d/2, nil)
	inst.close()
	inst, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	tr := newTracer(spanCap)
	traced := measure(inst, d/2, tr)
	inst.close()

	st := tr.stats()
	layers := map[string]float64{}
	w.layers(traced, st, layers, rep.samples)
	processLayers(plain, layers)
	rep.result = result{
		Correct:   plain.failed == 0 && traced.failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range perLayerMetrics {
		rep.result.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
	}
	rep.problems = append(plain.problems, traced.problems...)
	rep.extra["error_ratio"] = metric{float64(rep.result.Failed) / float64(max(rep.result.Attempted, 1)), "ratio"}
	rep.extra["host_steal_pct"] = metric{100 * max(plain.steal.overall(), traced.steal.overall()), "%"}

	// Tracing overhead: traced end-to-end figures minus untraced ones.
	e0 := endToEnd(plain, medianF(setupS), map[string]int{})
	e1 := endToEnd(traced, medianF(setupS), map[string]int{})
	for _, k := range []string{"throughput_ops_s", "latency_p50_ms", "latency_p99_ms"} {
		rep.extra["untraced."+k] = e0.Metrics[k]
		rep.extra["traced."+k] = e1.Metrics[k]
		rep.extra["trace_overhead."+k] = metric{Value: e1.Metrics[k].Value - e0.Metrics[k].Value, Unit: e0.Metrics[k].Unit}
	}
	printSummary(cfg, rep)
	printLadder(cfg.workload, st, e0.Metrics["latency_p50_ms"].Value, rep.extra)
	if err := os.MkdirAll(cfg.outDir, 0o755); err == nil {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s.csv", cfg.workload))
		if err := tr.dump(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: span dump:", err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (%d dropped at the cap)\n", len(tr.spans), path, tr.dropped.Load())
		}
	}
	return rep, nil
}

// window is the slice of the measured phase the end-to-end figures are
// taken over. Only clean whole windows count, those in which the
// hypervisor stole at most stealMax of the CPU time: a latency quantile is
// the median over them of each window's quantile, and the op rate is their
// ops over their time. A stretch of steal or another burst of noise from
// outside the process then moves a few windows and not the figure, while a
// change that slows every op still moves every window. With fewer than 3
// clean windows every window counts.
const window = 500 * time.Millisecond

// figures is a phase's end-to-end latency quantiles (ms) and throughput
// (1/s), with the number of windows (and bursts) used and available.
type figures struct {
	p50, p99, throughput float64
	windowsUsed, windows int
	burstsUsed, bursts   int
}

func (ph *phase) figures() figures {
	var end int64
	for _, t := range ph.at {
		end = max(end, t)
	}
	n := int(end / int64(window))
	buckets := make([][]int64, n)
	for i, t := range ph.at {
		if w := int(t / int64(window)); w < n {
			buckets[w] = append(buckets[w], ph.lat[i])
		}
	}
	var clean [][]int64
	for k, b := range buckets {
		from := ph.t0.Add(time.Duration(k) * window)
		if ph.steal.frac(from, from.Add(window)) <= stealMax {
			clean = append(clean, b)
		}
	}
	if len(clean) < 3 {
		clean = buckets
	}
	f := figures{windowsUsed: len(clean), windows: n}
	var p50s, p99s []float64
	ops := 0
	for _, b := range clean {
		if len(b) > 0 {
			p50s = append(p50s, pctMs(b, 0.50))
			p99s = append(p99s, pctMs(b, 0.99))
		}
		ops += len(b)
	}
	if n < 3 {
		f.p50, f.p99 = pctMs(ph.lat, 0.50), pctMs(ph.lat, 0.99)
		f.throughput = float64(len(ph.lat)) / (float64(max(end, 1)) / 1e9)
	} else {
		f.p50, f.p99 = medianF(p50s), medianF(p99s)
		f.throughput = float64(ops) / (float64(len(clean)) * window.Seconds())
	}
	if ph.bursts != nil {
		f.throughput, f.burstsUsed, f.bursts = burstRate(ph.bursts, ph.steal)
	}
	return f
}

// burstRate is ops per second over the clean bursts (all of them when fewer
// than 2 are clean), with the bursts used and available.
func burstRate(bursts []burst, steal *stealSampler) (rate float64, used, all int) {
	var clean []burst
	for _, b := range bursts {
		if steal.frac(b.start, b.end) <= stealMax {
			clean = append(clean, b)
		}
	}
	if len(clean) < 2 {
		clean = bursts
	}
	var ops int64
	var busy time.Duration
	for _, b := range clean {
		ops += b.ops
		busy += b.end.Sub(b.start)
	}
	return float64(ops) / busy.Seconds(), len(clean), len(bursts)
}

// endToEnd turns a measured phase into the end-to-end metrics.
func endToEnd(ph *phase, setupS float64, samples map[string]int) result {
	f := ph.figures()
	samples["latency_p50_ms"] = len(ph.lat)
	samples["latency_p99_ms"] = len(ph.lat)
	samples["throughput_ops_s"] = int(ph.ops)
	samples["windows_used"], samples["windows"] = f.windowsUsed, f.windows
	samples["bursts_used"], samples["bursts"] = f.burstsUsed, f.bursts
	return result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"throughput_ops_s": {f.throughput, "1/s"},
			"latency_p50_ms":   {f.p50, "ms"},
			"latency_p99_ms":   {f.p99, "ms"},
			"heap_live_mb":     {ph.heapMB, "MB"},
			"setup_s":          {setupS, "s"},
		},
	}
}

// processLayers fills the process.* per-layer metrics from the untraced
// half of a traced run, so span recording does not count as program cost.
func processLayers(ph *phase, out map[string]float64) {
	ops := float64(max(ph.procOps, 1))
	out["process.allocs_per_op"] = float64(ph.proc.mallocs) / ops
	out["process.alloc_bytes_per_op"] = float64(ph.proc.bytes) / ops
	out["process.cpu_us_per_op"] = float64(ph.proc.cpu) / 1e3 / ops
	out["process.gc_cycles"] = float64(ph.proc.gcs)
	out["process.gc_pause_ms"] = float64(ph.proc.pause) / 1e6
}

// pctMs is the nearest-rank q-quantile of ns samples, in ms.
func pctMs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rank(len(s), q)]) / 1e6
}

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	i := int(q*float64(n)+0.999999999) - 1
	return min(max(i, 0), n-1)
}

// medianF is the median of v, 0 when v is empty.
func medianF(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
