package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envSnap is one reading of the process and host counters the benchmark
// reports next to its timings, so a run slowed by CPU steal or GC is
// explained instead of hidden.
type envSnap struct {
	wall     time.Time
	cpu      time.Duration // process user+system CPU
	gcCycles uint64
	heapLive uint64 // bytes live after the last GC mark
	steal    uint64 // host /proc/stat steal jiffies
	total    uint64 // host /proc/stat jiffies over all states
}

func readEnv() envSnap {
	s := envSnap{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		s.heapLive = ms[1].Value.Uint64()
	}
	s.steal, s.total = procStatCPU()
	return s
}

// procStatCPU returns the steal and total jiffies of the aggregate "cpu"
// line of /proc/stat; zeros where the file is unavailable.
func procStatCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealPct is the share of host CPU time stolen by the hypervisor between
// two snapshots, in percent.
func stealPct(a, b envSnap) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// settle collects the garbage left by set-up, so the timed phase starts
// from the live heap it will hold while running.
func settle() {
	runtime.GC()
	runtime.GC()
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule on a sorted copy; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
