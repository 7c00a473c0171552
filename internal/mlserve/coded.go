package mlserve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/faas"
)

// CodedConfig parameterizes straggler-resilient distributed mat-vec — the
// coded-computation setting of [104]/[132], where redundant encoded work
// lets the result complete from any sufficient subset of workers, providing
// "in-built resiliency against stragglers that are characteristic of
// serverless architectures".
type CodedConfig struct {
	// Stripes is how many row-stripes the matrix splits into.
	Stripes int
	// Replication is how many workers compute each stripe (1 = uncoded:
	// the result needs *every* worker; ≥2 = coded: the result needs any
	// one replica per stripe).
	Replication int
	// StragglerProb is each task's probability of straggling.
	StragglerProb float64
	// StragglerDelay is the extra modelled latency a straggler pays.
	// Default 10× WorkPerRow×rows.
	StragglerDelay time.Duration
	// WorkPerEntry models compute per matrix entry. Default 1µs.
	WorkPerEntry time.Duration
	// Seed drives straggler injection.
	Seed int64
	// Tenant owns the worker function. Default "coded".
	Tenant string
}

func (c CodedConfig) withDefaults(rows int) CodedConfig {
	if c.Stripes <= 0 {
		c.Stripes = 4
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.WorkPerEntry == 0 {
		c.WorkPerEntry = time.Microsecond
	}
	if c.StragglerDelay == 0 {
		c.StragglerDelay = 10 * time.Duration(rows) * time.Millisecond
	}
	if c.Tenant == "" {
		c.Tenant = "coded"
	}
	return c
}

// CodedReport describes one mat-vec run.
type CodedReport struct {
	Y []float64
	// Wall is when the result was complete (first replica per stripe).
	Wall time.Duration
	// Invocations is total tasks launched (the redundancy cost).
	Invocations int
	// Stragglers is how many tasks straggled.
	Stragglers int
}

// MatVec computes y = A·x over FaaS workers with the given striping and
// replication. The returned wall time is when every stripe had its first
// completed replica — redundant replicas may still be running (and billing).
func MatVec(p *faas.Platform, a [][]float64, x []float64, cfg CodedConfig) (CodedReport, error) {
	rows := len(a)
	if rows == 0 || len(a[0]) != len(x) {
		return CodedReport{}, fmt.Errorf("mlserve: matvec dimension mismatch")
	}
	cfg = cfg.withDefaults(rows)
	if cfg.Stripes > rows {
		cfg.Stripes = rows
	}
	clock := p.Clock()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pre-decide stragglers deterministically, task order = (stripe, replica).
	straggle := make([][]bool, cfg.Stripes)
	nStraggle := 0
	for s := range straggle {
		straggle[s] = make([]bool, cfg.Replication)
		for r := range straggle[s] {
			if rng.Float64() < cfg.StragglerProb {
				straggle[s][r] = true
				nStraggle++
			}
		}
	}

	fnName := fmt.Sprintf("matvec-%d-%d", cfg.Stripes, cfg.Replication)
	worker := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var in struct{ Stripe, Replica int }
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		lo, hi := in.Stripe*rows/cfg.Stripes, (in.Stripe+1)*rows/cfg.Stripes
		out := make([]float64, hi-lo)
		for i := lo; i < hi; i++ {
			for j, v := range a[i] {
				out[i-lo] += v * x[j]
			}
		}
		ctx.Work(time.Duration((hi-lo)*len(x)) * cfg.WorkPerEntry)
		if straggle[in.Stripe][in.Replica] {
			ctx.Work(cfg.StragglerDelay)
		}
		return json.Marshal(out)
	}
	if err := p.Register(fnName, cfg.Tenant, worker, faas.Config{
		ColdStart:  20 * time.Millisecond,
		Timeout:    time.Hour,
		MaxRetries: -1,
	}); err != nil {
		return CodedReport{}, err
	}
	defer p.Unregister(fnName)

	start := clock.Now()
	var mu sync.Mutex
	stripeDone := make([]bool, cfg.Stripes)
	stripeOut := make([][]float64, cfg.Stripes)
	remaining := cfg.Stripes
	var wall time.Duration
	allDone := make(chan struct{})
	var once sync.Once
	var wgAll sync.WaitGroup

	for s := 0; s < cfg.Stripes; s++ {
		for r := 0; r < cfg.Replication; r++ {
			payload, _ := json.Marshal(struct{ Stripe, Replica int }{s, r})
			s := s
			wgAll.Add(1)
			p.InvokeAsync(faas.Req{Name: fnName, Payload: payload}, func(res faas.Result, err error) {
				defer wgAll.Done()
				if err != nil {
					return
				}
				var out []float64
				if json.Unmarshal(res.Output, &out) != nil {
					return
				}
				mu.Lock()
				if !stripeDone[s] {
					stripeDone[s] = true
					stripeOut[s] = out
					remaining--
					if remaining == 0 {
						// Stamp the wall here, in the resolving tracked
						// goroutine: virtual time cannot advance while it
						// runs. Reading Now() after BlockOn resumes instead
						// races with the clock driver — if this goroutine's
						// waker is descheduled past the settle window (GC
						// assist pressure), the driver jumps to the next
						// deadline (a straggler's wake) first and the
						// measurement absorbs the stragglers it was designed
						// to dodge.
						wall = clock.Now().Sub(start)
						once.Do(func() { close(allDone) })
					}
				}
				mu.Unlock()
			})
		}
	}
	clock.BlockOn(func() { <-allDone })
	// Drain the redundant replicas before returning (they exist and bill;
	// the *result* was ready at wall).
	clock.BlockOn(wgAll.Wait)

	y := make([]float64, 0, rows)
	mu.Lock()
	for _, part := range stripeOut {
		y = append(y, part...)
	}
	mu.Unlock()
	return CodedReport{
		Y:           y,
		Wall:        wall,
		Invocations: cfg.Stripes * cfg.Replication,
		Stragglers:  nStraggle,
	}, nil
}

// MatVecSerial is the baseline.
func MatVecSerial(a [][]float64, x []float64) []float64 {
	y := make([]float64, len(a))
	for i, row := range a {
		for j, v := range row {
			y[i] += v * x[j]
		}
	}
	return y
}

// RandomMatrix generates a deterministic rows×cols matrix.
func RandomMatrix(rows, cols int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([][]float64, rows)
	for i := range a {
		a[i] = make([]float64, cols)
		for j := range a[i] {
			a[i][j] = rng.NormFloat64()
		}
	}
	return a
}

// RandomVector generates a deterministic vector.
func RandomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// MaxAbsDiffVec returns max |a[i]-b[i]|.
func MaxAbsDiffVec(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
