package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"tunable/internal/compress"
)

var update = flag.Bool("update", false, "regenerate testdata/lzw_cpu.pb.gz")

func TestBucketOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"innermost package wins", []string{
			"tunable/internal/compress.lzwAppendEncode",
			"tunable/internal/compress.LZW.Encode",
			"tunable/internal/avis.(*RealServer).serveReal",
			"runtime.goexit"}, "compress"},
		{"runtime leaf charged to its caller", []string{
			"runtime.memclrNoHeapPointers",
			"runtime.mallocgc",
			"tunable/internal/wavelet.NewCanvas",
			"main.(*client).fetch"}, "wavelet"},
		{"closure and method names", []string{
			"tunable/internal/avis.(*ImageStore).Pyramid.func1",
			"sync.(*Once).doSlow"}, "avis"},
		{"background mark worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker"}, bucketGC},
		{"assist under a package is still GC", []string{
			"runtime.scanobject",
			"runtime.gcAssistAlloc",
			"runtime.mallocgc",
			"tunable/internal/compress.(*bzwScratch).grow"}, bucketGC},
		{"socket write under wire", []string{
			"internal/runtime/syscall.Syscall6",
			"syscall.Syscall",
			"syscall.writev",
			"internal/poll.(*FD).Writev",
			"tunable/internal/wire.(*Conn).flush"}, bucketSyscall},
		{"runtime futex", []string{
			"runtime.futex",
			"runtime.futexsleep",
			"runtime.notesleep",
			"runtime.findRunnable"}, bucketSyscall},
		{"driver code", []string{
			"main.digestImage",
			"main.(*client).fetch"}, bucketOther},
		{"scheduler", []string{
			"runtime.findRunnable",
			"runtime.schedule"}, bucketOther},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("%s: bucket %q, want %q", c.name, got, c.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	text, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	stacks, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 4 {
		t.Fatalf("parsed %d stacks, want 4", len(stacks))
	}
	if stacks[0].weight != 30*time.Millisecond || len(stacks[0].frames) != 3 ||
		stacks[0].frames[0] != "tunable/internal/compress.lzwAppendEncode" {
		t.Errorf("first stack = %+v", stacks[0])
	}
	if stacks[3].weight != 1500*time.Millisecond {
		t.Errorf("last stack weight %v, want 1.5s", stacks[3].weight)
	}
	// 30ms compress, 10ms wire syscall, 60ms GC, 1.5s compress via inline
	// frame: 1530/1600 compress, 10/1600 syscall, 60/1600 GC.
	got := cpuShares(stacks)
	want := map[string]float64{"compress": 95.625, bucketSyscall: 0.625, bucketGC: 3.75}
	if len(got) != len(want) {
		t.Errorf("shares %v, want %v", got, want)
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("share %s = %v, want %v", k, got[k], w)
		}
	}
}

// TestFixtureProfile reads a real CPU profile of a loop that only runs
// LZW and BZW encodes back through `go tool pprof`: nearly every sample
// must land on compress, the rest on the scratch buffers it draws from
// bufpool or on the runtime.
func TestFixtureProfile(t *testing.T) {
	const fixture = "testdata/lzw_cpu.pb.gz"
	if *update {
		writeFixture(t, fixture)
	}
	stacks, err := readProfile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, s := range stacks {
		total += s.weight
	}
	if total < 200*time.Millisecond {
		t.Fatalf("fixture holds only %v of samples", total)
	}
	shares := cpuShares(stacks)
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%", sum)
	}
	if shares["compress"] < 90 {
		t.Errorf("compress share %.1f%%, want >= 90%% (shares %v)", shares["compress"], shares)
	}
	for b, s := range shares {
		if b != "compress" && b != "bufpool" && b != bucketGC && b != bucketOther && b != bucketSyscall {
			t.Errorf("unexpected package bucket %s at %.1f%%", b, s)
		}
	}
}

func writeFixture(t *testing.T, path string) {
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64<<10)
	r := newRNG(1, "fixture")
	for i := range data {
		data[i] = byte(r.intn(16)) // low entropy, so the codecs do real work
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		for _, name := range []string{"lzw", "bzw"} {
			c, err := compress.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			c.Encode(data)
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the driver's
// metric tables in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, driver %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), driver %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, driver %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, driver %s", i, w.Name, workloadNames[i])
		}
	}
}
