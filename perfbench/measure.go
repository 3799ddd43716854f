package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// phase measures one timed phase. Heap statistics and CPU time are read only
// at its two edges, so the reading costs the ops nothing.
type phase struct {
	start  time.Time
	cpu0   time.Duration
	ms0    runtime.MemStats
	steal0 hostTicks
}

type phaseStats struct {
	wall, cpu time.Duration
	mallocs   uint64 // heap objects allocated
	bytes     uint64 // heap bytes allocated
	gcs       uint32 // completed GC cycles
	// stealShare is the share of the host's busy CPU time the hypervisor
	// stole over the phase (all processes, from /proc/stat; 0 if unreadable).
	stealShare float64
}

func beginPhase() *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.ms0)
	p.cpu0 = cpuTime()
	p.steal0 = readHostTicks()
	p.start = time.Now()
	return p
}

func (p *phase) end() phaseStats {
	wall := time.Since(p.start)
	cpu := cpuTime()
	ticks := readHostTicks()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var steal float64
	if busy := ticks.busy - p.steal0.busy; busy > 0 {
		steal = float64(ticks.steal-p.steal0.steal) / float64(busy)
	}
	return phaseStats{
		stealShare: steal,
		wall:       wall,
		cpu:        cpu - p.cpu0,
		mallocs:    ms.Mallocs - p.ms0.Mallocs,
		bytes:      ms.TotalAlloc - p.ms0.TotalAlloc,
		gcs:        ms.NumGC - p.ms0.NumGC,
	}
}

// hostTicks are the host-wide busy and steal jiffies of /proc/stat; busy
// counts every state but idle and iowait, steal included.
type hostTicks struct{ busy, steal uint64 }

func readHostTicks() hostTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostTicks{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal, t.busy = n, t.busy+n
		default:
			if i < 8 { // guest time is already in user
				t.busy += n
			}
		}
	}
	return t
}

// cpuTime is the process's own user+system CPU time. Time the hypervisor
// steals from the guest is not charged to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss is in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func median(xs []time.Duration) time.Duration { return quantile(xs, 0.5) }

// tail picks the highest of p99.9, p99 and p90 that has at least ten samples
// beyond it; with fewer than forty samples there is no tail to report.
func tail(xs []time.Duration) (name string, v time.Duration, beyond int, ok bool) {
	for _, c := range []struct {
		name string
		q    float64
	}{{"99.9", 0.999}, {"99", 0.99}, {"90", 0.9}} {
		n := int(float64(len(xs)) * (1 - c.q))
		if n >= 10 && len(xs) >= 40 {
			return c.name, quantile(xs, c.q), n, true
		}
	}
	return "", 0, 0, false
}
