// Command perfbench is the repository benchmark: three workloads run
// against the platform as `taureau -gateway` deploys it (real clock,
// observability on, default core.Options) with every modelled latency set
// to its smallest value, so wall time measures the Go code.
//
//	go run . --workload gateway-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object carrying
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// taken from spans the benchmark records around its calls into each layer.
// README.md explains the workloads and the metric → layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one run's parameters, fixed before any input is generated.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	clients  int    // closed-loop client goroutines: min(2, nproc)
	outDir   string // where the span dump and the full result file go
	commit   string
}

// metric is one named figure of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line: exactly the keys the benchmark contract
// names.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLimit bounds a whole run: set-ups, the measured phase and the checks.
const runLimit = 170 * time.Second

// workloads maps each workload name to its constructor.
var workloads = map[string]func(config) benchWorkload{
	"gateway-mix":     newGatewayMix,
	"invoke-state":    newInvokeState,
	"stream-countmin": newStreamCountMin,
}

func main() {
	cfg := config{clients: min(2, runtime.NumCPU())}
	flag.StringVar(&cfg.workload, "workload", "", "gateway-mix | invoke-state | stream-countmin")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase")
	traceN := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for the span dump and the full result file")
	flag.Parse()
	cfg.trace = *traceN == 1
	cfg.commit = os.Getenv("BENCH_COMMIT")
	if cfg.commit == "" {
		cfg.commit = "unknown"
	}
	mk, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*traceN != 0 && *traceN != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, cfg.seconds, *traceN)
		os.Exit(2)
	}
	// A run must end within its time limit even if the platform hangs.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	rep, err := run(cfg, mk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.result.Correct {
		os.Exit(1)
	}
}

// meta is recorded with every result so runs on different machines,
// toolchains or commits are visibly different.
type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Commit     string `json:"commit"`
}

func metaOf(cfg config) meta {
	return meta{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: cfg.clients, Commit: cfg.commit,
	}
}

// writeReport stores the full result (metadata, sample counts, check
// failures) beside the span dump; stderr gets the human-readable summary.
func writeReport(cfg config, rep *report) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	full := struct {
		Meta     meta              `json:"meta"`
		Result   result            `json:"result"`
		Samples  map[string]int    `json:"samples"`
		Problems []string          `json:"problems,omitempty"`
		Extra    map[string]metric `json:"extra,omitempty"`
	}{metaOf(cfg), rep.result, rep.samples, rep.problems, rep.extra}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-trace%d.json", cfg.workload, b2i(cfg.trace))
	return os.WriteFile(filepath.Join(cfg.outDir, name), b, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printSummary writes every metric with its unit and sample count to stderr.
func printSummary(cfg config, rep *report) {
	m := metaOf(cfg)
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%d trace=%v go=%s nproc=%d gomaxprocs=%d clients=%d commit=%s\n",
		m.Workload, m.Seed, m.Seconds, m.Trace, m.GoVersion, m.NProc, m.GOMAXPROCS, m.Clients, m.Commit)
	names := make([]string, 0, len(rep.result.Metrics))
	for k := range rep.result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := rep.result.Metrics[k]
		if n, ok := rep.samples[k]; ok {
			fmt.Fprintf(os.Stderr, "  %-32s %14.4f %-6s (n=%d)\n", k, v.Value, v.Unit, n)
		} else {
			fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", k, v.Value, v.Unit)
		}
	}
	if n, ok := rep.samples["windows"]; ok {
		fmt.Fprintf(os.Stderr, "  latency from %d of %d windows of %v (the rest lost over %.0f%% of CPU to the hypervisor; %.1f%% over the phase)\n",
			rep.samples["windows_used"], n, window, 100*stealMax, rep.extra["host_steal_pct"].Value)
	}
	if n := rep.samples["bursts"]; n > 0 {
		fmt.Fprintf(os.Stderr, "  throughput from %d of %d bursts\n", rep.samples["bursts_used"], n)
	}
	e := rep.extra["error_ratio"]
	fmt.Fprintf(os.Stderr, "  %-32s %14.4f %-6s (failed %d of %d attempted)\n", "error_ratio", e.Value, e.Unit, rep.result.Failed, rep.result.Attempted)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "  CHECK FAILED:", p)
	}
}
