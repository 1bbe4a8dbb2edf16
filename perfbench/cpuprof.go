package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// internalPkgs is every package under tunable/internal; each gets a
// cpu.<pkg> share in the traced run, whether or not it ran.
var internalPkgs = []string{
	"apps", "avis", "bufpool", "cluster", "compress", "core", "edge", "expt",
	"faults", "imagery", "lru", "metrics", "monitor", "netem", "perfdb",
	"perfstore", "profiler", "resource", "sandbox", "scheduler", "spec",
	"steering", "trace", "vtime", "wavelet", "wire",
}

// CPU buckets besides the packages.
const (
	bucketGC      = "runtime_gc"
	bucketSyscall = "syscall"
	bucketOther   = "other"
)

// stack is one distinct call stack of a CPU profile, leaf frame first,
// with the CPU time its samples account for.
type stack struct {
	weight time.Duration
	frames []string
}

// readProfile prints a CPU profile's stacks with the installed
// `go tool pprof -traces` and parses them.
func readProfile(path string) ([]stack, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

// parseTraces reads pprof's -traces text: blocks separated by dashed
// lines, each opening with "<value>   <leaf frame>" followed by one caller
// frame per line.
func parseTraces(text []byte) ([]stack, error) {
	var out []stack
	var cur *stack
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBlocks = true
			cur = nil
			continue
		}
		if !inBlocks || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if cur == nil {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad block head %q", line)
			}
			w, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value %q", fields[0])
			}
			out = append(out, stack{weight: w, frames: []string{fields[1]}})
			cur = &out[len(out)-1]
			continue
		}
		cur.frames = append(cur.frames, fields[0])
	}
	return out, sc.Err()
}

// gcFrames mark a stack as garbage-collector work wherever they appear,
// including assists and sweeping charged to an allocating goroutine.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.gcStart",
}

// syscallFrames mark a stack as time in the kernel interface: the syscall
// package and the runtime's own futex, epoll and sleep calls.
var syscallFrames = []string{
	"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.",
	"runtime.futex", "runtime.epollwait", "runtime.usleep",
}

// bucketOf attributes one stack: GC work first, then syscalls, then the
// innermost tunable/internal package on the stack, else "other".
func bucketOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return bucketGC
			}
		}
	}
	for _, f := range frames {
		for _, s := range syscallFrames {
			if strings.HasPrefix(f, s) {
				return bucketSyscall
			}
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "tunable/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return bucketOther
}

// cpuShares attributes every stack and returns each bucket's share of
// the profile's CPU time in percent. Buckets that saw no samples are
// absent.
func cpuShares(stacks []stack) map[string]float64 {
	var total time.Duration
	byBucket := map[string]time.Duration{}
	for _, s := range stacks {
		total += s.weight
		byBucket[bucketOf(s.frames)] += s.weight
	}
	out := make(map[string]float64, len(byBucket))
	for b, w := range byBucket {
		out[b] = 100 * float64(w) / float64(total)
	}
	return out
}
