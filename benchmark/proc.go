package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of the utime/stime fields of /proc/<pid>/stat
// (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// peakRSSMiB returns VmHWM, the peak resident set size, of process pid
// ("self" for this process) in MiB.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS lowers process pid's VmHWM to its current resident set size
// (Linux 4.0 and later), so the next peakRSSMiB reading covers only what
// runs in between.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// processCPU returns the user+system CPU time process pid has used.
func processCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields after
	// it start at state (field 3). utime and stime are fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%s/stat cpu times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// cpuStat is the aggregate line of /proc/stat: steal and total jiffies.
type cpuStat struct{ steal, total int64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			st.total += n
		}
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// stealPct is the share of all CPUs' time the hypervisor gave to other
// guests between a and b, in percent.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// isTmpfs reports whether dir lives on a RAM-backed tmpfs.
func isTmpfs(dir string) bool {
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		return false
	}
	return fs.Type == 0x01021994 // TMPFS_MAGIC
}

// rtSample is a snapshot of this process's runtime counters.
type rtSample struct {
	cpu        time.Duration // user+system CPU of the whole process
	gcCPU      float64       // estimated GC CPU seconds
	allocBytes uint64
}

// rtReader reads runtime/metrics into a preallocated sample slice, so a
// reading allocates nothing. Not safe for concurrent use.
type rtReader struct{ s []metrics.Sample }

func newRTReader() *rtReader {
	return &rtReader{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}}
}

// allocs returns the cumulative heap allocation count.
func (r *rtReader) allocs() uint64 {
	metrics.Read(r.s[:1])
	return r.s[0].Value.Uint64()
}

func (r *rtReader) read() rtSample {
	metrics.Read(r.s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: r.s[1].Value.Uint64(),
		gcCPU:      r.s[2].Value.Float64(),
	}
}
