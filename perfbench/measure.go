package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	tmetrics "tunable/internal/metrics"
)

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks; vs is sorted in place. 0 when empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the machine-wide CPU tick counters of /proc/stat: the
// ticks the hypervisor gave to other guests (steal) and all ticks. ok is
// false where /proc/stat is missing or has no steal column.
func hostTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:9] { // user .. steal; guest time is inside user
		v, err := strconv.ParseUint(s, 10, 64)
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

// phase brackets one measured interval: wall time, process CPU, bytes
// allocated, GC CPU, and the peak live heap. The live heap is what a GC
// cycle found reachable; the total heap in use also holds garbage not yet
// swept, and its peak moved by a quarter between identical runs with GC
// timing. PeakHeap is the median over windowLen windows of each window's
// peak: the single largest live heap of a phase depends on whether a GC
// cycle happened to end on a transient, and on adapt-mix it read 10.3 or
// 13.6 MB between runs of the same seed.
type phase struct {
	start   time.Time
	cpu0    time.Duration
	alloc0  uint64
	gcCPU0  float64
	allCPU0 float64

	stop        chan struct{}
	done        chan struct{}
	peak        uint64
	windowPeaks []float64
	steal0      uint64
	ticks0      uint64

	Wall       time.Duration
	CPU        time.Duration
	AllocBytes uint64
	GCShare    float64
	PeakHeap   uint64
	MaxHeap    uint64 // largest live heap of the phase
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the phase (-1 where unknown): a
	// diagnostic of host load, which sets most of the run-to-run spread.
	StealShare float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/live:bytes"},
}

func readRuntime() (alloc uint64, gcCPU, allCPU float64, heap uint64) {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64(), s[3].Value.Uint64()
}

// startPhase forces a collection so every phase starts from the same heap
// state, then starts sampling the live heap every 2 ms.
func startPhase() *phase {
	runtime.GC()
	p := &phase{stop: make(chan struct{}), done: make(chan struct{})}
	p.alloc0, p.gcCPU0, p.allCPU0, p.peak = readRuntime()
	go func() {
		defer close(p.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		roll, win := time.Now().Add(windowLen), uint64(0)
		for {
			select {
			case <-p.stop:
				return
			case now := <-t.C:
				metrics.Read(s)
				v := s[0].Value.Uint64()
				p.peak = max(p.peak, v)
				win = max(win, v)
				if now.After(roll) {
					p.windowPeaks = append(p.windowPeaks, float64(win))
					roll, win = roll.Add(windowLen), v
				}
			}
		}
	}()
	p.steal0, p.ticks0, _ = hostTicks()
	p.cpu0 = cpuTime()
	p.start = time.Now()
	return p
}

func (p *phase) end() {
	p.Wall = time.Since(p.start)
	p.CPU = cpuTime() - p.cpu0
	close(p.stop)
	<-p.done
	alloc, gc, all, heap := readRuntime()
	if heap > p.peak {
		p.peak = heap
	}
	p.AllocBytes = alloc - p.alloc0
	if all > p.allCPU0 {
		p.GCShare = (gc - p.gcCPU0) / (all - p.allCPU0)
	}
	p.StealShare = -1
	if steal, ticks, ok := hostTicks(); ok && ticks > p.ticks0 {
		p.StealShare = float64(steal-p.steal0) / float64(ticks-p.ticks0)
	}
	p.MaxHeap = p.peak
	p.PeakHeap = p.peak
	if len(p.windowPeaks) > 0 {
		p.PeakHeap = uint64(median(p.windowPeaks))
	}
}

// spanStat folds the spans the driver records around one kind of call
// into a count and a total; per-call lists would perturb what they
// measure.
type spanStat struct {
	N     int64
	Total time.Duration
}

func (s *spanStat) add(d time.Duration) {
	s.N++
	s.Total += d
}

func (s *spanStat) merge(o spanStat) {
	s.N += o.N
	s.Total += o.Total
}

// meanUS is the mean span length in microseconds.
func (s spanStat) meanUS() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Total.Microseconds()) / float64(s.N)
}

// regSnap is a point-in-time copy of a metrics registry: counter and
// gauge values, and histogram count/sum, keyed by name{labels}.
type regSnap map[string]instVal

type instVal struct {
	Value float64
	Count float64
	Sum   float64
}

func snapshot(regs ...*tmetrics.Registry) regSnap {
	out := regSnap{}
	for _, reg := range regs {
		for _, m := range reg.SnapshotJSON().Metrics {
			key := m.Name
			if len(m.Labels) > 0 {
				keys := make([]string, 0, len(m.Labels))
				for k := range m.Labels {
					keys = append(keys, k+"="+m.Labels[k])
				}
				sort.Strings(keys)
				key += "{" + strings.Join(keys, ",") + "}"
			}
			v := out[key]
			v.Value += m.Value
			v.Count += float64(m.Count)
			v.Sum += m.Sum
			out[key] = v
		}
	}
	return out
}

// delta returns after-before for every instrument in after.
func (after regSnap) delta(before regSnap) regSnap {
	out := regSnap{}
	for k, a := range after {
		b := before[k]
		out[k] = instVal{Value: a.Value - b.Value, Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	}
	return out
}

// meanUS is a histogram's mean observation (seconds) in microseconds.
func (s regSnap) meanUS(key string) float64 {
	v := s[key]
	if v.Count == 0 {
		return 0
	}
	return v.Sum / v.Count * 1e6
}

// ratio is value(num)/value(den), 0 when the denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowLen is the sampling window of a socket phase. Rates and CPU per
// op are taken per window and reported as medians over the windows, so a
// burst of load from outside the benchmark moves a few windows, not the
// result.
const windowLen = 500 * time.Millisecond

// interval is one timed call and the ops it did: a fetch (one image) or
// an adaptation seed run (all its sessions or images).
type interval struct {
	start, end time.Time
	ops        float64
}

// windows marks the time and process CPU at every window boundary.
type windows struct {
	stop  chan struct{}
	done  chan struct{}
	times []time.Time
	cpus  []time.Duration
}

func startWindows() *windows {
	w := &windows{stop: make(chan struct{}), done: make(chan struct{})}
	w.times, w.cpus = append(w.times, time.Now()), append(w.cpus, cpuTime())
	go func() {
		defer close(w.done)
		t := time.NewTicker(windowLen)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case now := <-t.C:
				w.times, w.cpus = append(w.times, now), append(w.cpus, cpuTime())
			}
		}
	}()
	return w
}

// end stops the sampler; a trailing partial window is dropped.
func (w *windows) end() {
	close(w.stop)
	<-w.done
}

// rates returns, per window, the ops done per second and the CPU
// milliseconds per op. A call straddling a boundary counts in each window
// in proportion to its overlap, so neither figure is quantized to whole
// calls.
func (w *windows) rates(calls []interval) (perSec, cpuPerOp []float64) {
	for i := 0; i+1 < len(w.times); i++ {
		a, b := w.times[i], w.times[i+1]
		ops := 0.0
		for _, f := range calls {
			lo, hi := f.start, f.end
			if lo.Before(a) {
				lo = a
			}
			if hi.After(b) {
				hi = b
			}
			if d := f.end.Sub(f.start); hi.After(lo) && d > 0 {
				ops += f.ops * float64(hi.Sub(lo)) / float64(d)
			}
		}
		if ops > 0 {
			perSec = append(perSec, ops/b.Sub(a).Seconds())
			cpuPerOp = append(cpuPerOp, ms(w.cpus[i+1]-w.cpus[i])/ops)
		}
	}
	return perSec, cpuPerOp
}

// classQuantile is the mean over classes of each class's q-quantile. The
// socket workloads mix fetches of very different cost (lzw and bzw 1:1;
// level 2 and level 3 1:1), and a pooled median would fall in the gap
// between the modes and jump from run to run.
func classQuantile(byClass map[string][]float64, q float64) float64 {
	if len(byClass) == 0 {
		return 0
	}
	sum := 0.0
	for _, vs := range byClass {
		sum += quantile(vs, q)
	}
	return sum / float64(len(byClass))
}

// pooled flattens per-class samples.
func pooled(byClass map[string][]float64) []float64 {
	var out []float64
	for _, vs := range byClass {
		out = append(out, vs...)
	}
	return out
}
