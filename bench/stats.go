package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks. sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median returns the median of vals (0 for an empty slice). vals is not
// modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// windowedP99 is the tail estimate the latency metrics report: the samples,
// in time order, are cut into at least ten windows of 100 to 1,000 samples,
// and the result is the median of the windows' 99th percentiles. One stall
// (a GC pause, a neighbour on the box) lands in one window and cannot move
// the median, where it would move a p99 taken over the whole run.
func windowedP99(inOrder []float64) float64 {
	size := len(inOrder) / 10
	if size > 1000 {
		size = 1000
	}
	if size < 100 {
		size = 100
	}
	var tails []float64
	for lo := 0; lo+size <= len(inOrder) || lo == 0; lo += size {
		hi := lo + size
		if hi > len(inOrder) {
			hi = len(inOrder)
		}
		w := append([]float64(nil), inOrder[lo:hi]...)
		sort.Float64s(w)
		tails = append(tails, quantile(w, 0.99))
	}
	return median(tails)
}

// quartiles returns the first quartile, median and third quartile of vals
// using the same exclusive method as Python's statistics.quantiles(n=4),
// which is what the acceptance spread is defined by.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in MB.
// It returns 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// memCounters is the allocation state read before and after a measured
// region.
type memCounters struct{ mallocs, bytes uint64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// microIters is how often one micro row repeats its fixed-iteration loop;
// the row reports the median repetition.
const microIters = 5

// microRow times fn over a fixed iteration count, microIters times, and
// returns the median nanoseconds and allocations per iteration. fn runs
// iters operations per call.
func microRow(iters int, fn func(iters int)) (ns, allocs float64) {
	fn(iters/10 + 1) // warm caches and lazy set-up
	nsVals := make([]float64, 0, microIters)
	allocVals := make([]float64, 0, microIters)
	for r := 0; r < microIters; r++ {
		before := readMem()
		start := time.Now()
		fn(iters)
		el := time.Since(start)
		after := readMem()
		nsVals = append(nsVals, float64(el.Nanoseconds())/float64(iters))
		allocVals = append(allocVals, float64(after.mallocs-before.mallocs)/float64(iters))
	}
	return median(nsVals), median(allocVals)
}
