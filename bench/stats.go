package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"idebench/internal/metrics"
)

// series is a list of samples in the order they were taken.
type series []float64

func (s series) sorted() []float64 {
	out := make([]float64, 0, len(s))
	for _, v := range s {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// pct is the p-quantile of s, 0 when s is empty.
func (s series) pct(p float64) float64 {
	sorted := s.sorted()
	if len(sorted) == 0 {
		return 0
	}
	return metrics.PercentileSorted(sorted, p)
}

func (s series) mean() float64 {
	var sum float64
	n := 0
	for _, v := range s {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartiles returns Q1, median, Q3 with the method of Python's
// statistics.quantiles(values, n=4) (exclusive), which is what the accepting
// driver computes spreads with.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return v[j-1] + delta*(v[j]-v[j-1])
	}
	return at(1), at(2), at(3)
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set so far, set-up included, in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// sampleRSS samples the process's resident set every 20 ms until the
// returned function is called, which reports the samples' mean in MB (0
// where /proc is not readable). The mean, not the peak, is the bounded
// memory metric: the heap saw-tooths between collections, and how high the
// highest tooth of a 15 s window reaches moved by a third between runs of
// explore-served, while the mean moves by a few percent.
func sampleRSS() (stop func() (meanMB float64)) {
	fd, err := syscall.Open("/proc/self/statm", syscall.O_RDONLY, 0)
	if err != nil {
		return func() float64 { return 0 }
	}
	done := make(chan struct{})
	finished := make(chan float64)
	go func() {
		defer syscall.Close(fd)
		page := float64(syscall.Getpagesize()) / (1 << 20)
		var buf [128]byte
		var sum float64
		n := 0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				if n > 0 {
					sum /= float64(n)
				}
				finished <- sum
				return
			case <-tick.C:
			}
			k, err := syscall.Pread(fd, buf[:], 0)
			if err != nil {
				continue
			}
			// "size resident shared ...", in pages.
			fields := strings.Fields(string(buf[:k]))
			if len(fields) < 2 {
				continue
			}
			pages, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				continue
			}
			sum += pages * page
			n++
		}
	}()
	return func() float64 {
		close(done)
		return <-finished
	}
}
