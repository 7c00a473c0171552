package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared VM the hypervisor takes CPU time from the guest ("steal") in
// stretches of seconds to minutes, and a stretch slows every op in flight
// by time the program never saw. A stealSampler reads the host's steal
// counter while a phase runs, so the end-to-end figures can leave out the
// windows that lost CPU to the hypervisor.

// stealTick is how often the sampler reads /proc/stat.
const stealTick = 100 * time.Millisecond

// stealMax is the largest share of CPU time stolen in a window (or a
// stream-countmin burst) that still counts it as clean. An idle host steals
// well under 1%.
const stealMax = 0.02

type stealSampler struct {
	stop, done   chan struct{}
	at           []time.Time
	steal, total []int64
}

// startSteal starts sampling; it returns nil where /proc/stat has no steal
// column, and every window then counts as clean.
func startSteal() *stealSampler {
	steal, total, ok := readSteal()
	if !ok {
		return nil
	}
	s := &stealSampler{
		stop: make(chan struct{}), done: make(chan struct{}),
		at: []time.Time{time.Now()}, steal: []int64{steal}, total: []int64{total},
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(stealTick)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealSampler) sample() {
	if steal, total, ok := readSteal(); ok {
		s.at = append(s.at, time.Now())
		s.steal = append(s.steal, steal)
		s.total = append(s.total, total)
	}
}

// finish stops the sampler and waits for it; frac is safe to call after.
func (s *stealSampler) finish() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}

// frac is the share of CPU time stolen over the samples enclosing [a, b],
// or 0 without a sampler.
func (s *stealSampler) frac(a, b time.Time) float64 {
	if s == nil {
		return 0
	}
	i, j := 0, len(s.at)-1
	for i+1 < len(s.at) && !s.at[i+1].After(a) {
		i++
	}
	for j > i+1 && !s.at[j-1].Before(b) {
		j--
	}
	if j <= i || s.total[j] == s.total[i] {
		return 0
	}
	return float64(s.steal[j]-s.steal[i]) / float64(s.total[j]-s.total[i])
}

// overall is the share of CPU time stolen over everything sampled.
func (s *stealSampler) overall() float64 {
	if s == nil {
		return 0
	}
	return s.frac(s.at[0], s.at[len(s.at)-1])
}

// readSteal returns the steal and total ticks of /proc/stat's cpu line.
func readSteal() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:9] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
