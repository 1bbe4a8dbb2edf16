package main

import (
	"fmt"
	"math"
	"time"

	"tunable/internal/avis"
	"tunable/internal/cluster"
	"tunable/internal/metrics"
)

// warmup runs the clients before any measured phase so connections,
// pools and the edge cache are in steady state.
const warmup = time.Second

// runSocketWorkload runs fovea-origin or coarse-edge. Untraced, it
// reports the end-to-end metrics. Traced, it runs an untraced third of
// the time, boots a second topology with every registry enabled, and
// runs the rest under spans and a CPU profile.
func runSocketWorkload(name string, seed uint64, dur time.Duration, traced bool) (*report, error) {
	rep := &report{detail: map[string]float64{}}
	in := newSocketInputs(seed, name == "coarse-edge")
	var setups []float64
	if !traced {
		var err error
		if setups, err = childSetups(name, seed, setupChildren); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	topo, err := bootTopology(in.imageSeeds, false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, time.Since(t0).Seconds())
	refs, err := referenceDigests(topo.store, in)
	if err != nil {
		topo.close()
		return nil, err
	}
	phaseDur := dur
	if traced {
		phaseDur = dur / 3
	}
	cls, err := warmClients(topo, in, refs, seed, false)
	if err != nil {
		topo.close()
		return nil, err
	}
	run, ph, win := measureSockets(cls, phaseDur)
	closeClients(cls)
	topo.close()
	if run.ops == 0 {
		return nil, fmt.Errorf("no fetch completed")
	}
	rep.count(run)
	untracedRate := float64(run.ops) / ph.Wall.Seconds()
	if !traced {
		perSec, cpuPerOp := win.rates(run.fetches)
		if len(perSec) == 0 {
			return nil, fmt.Errorf("no fetch overlapped a full sampling window")
		}
		rep.metrics = map[string]float64{
			"setup_s":        median(setups),
			"ops_per_s":      median(perSec),
			"cpu_ms_per_op":  median(cpuPerOp),
			"heap_peak_mb":   float64(ph.PeakHeap) / (1 << 20),
			"latency_p50_ms": classQuantile(run.fetchMS, 0.5),
		}
		rep.detail["latency_p90_ms"] = classQuantile(run.fetchMS, 0.9)
		rep.detail["fetch_p99_ms"] = quantile(pooled(run.fetchMS), 0.99)
		rep.detail["round_p50_ms"] = quantile(run.roundMS, 0.5)
		rep.detail["round_p90_ms"] = quantile(run.roundMS, 0.9)
		rep.detail["session_start_p50_ms"] = quantile(run.startMS, 0.5)
		rep.detail["fetches"] = float64(run.ops)
		rep.detail["checked"] = float64(run.checked)
		rep.detail["heap_max_mb"] = float64(ph.MaxHeap) / (1 << 20)
		rep.detail["host_steal_pct"] = 100 * ph.StealShare
		rep.detail["windows"] = float64(len(perSec))
		return rep, nil
	}

	// The traced phase runs on a second topology whose components report
	// into registries, on a different draw stream than the first phase.
	topo, err = bootTopology(in.imageSeeds, true)
	if err != nil {
		return nil, err
	}
	defer topo.close()
	cls, err = warmClients(topo, in, refs, seed+1, true)
	if err != nil {
		return nil, err
	}
	defer closeClients(cls)
	regs := []*metrics.Registry{topo.regs.coord, topo.regs.origin, topo.regs.edge, topo.regs.client}
	before, edge0 := snapshot(regs...), topo.proxy.Stats()
	client0 := snapshot(topo.regs.client)
	stopProf, err := profileCPU()
	if err != nil {
		return nil, err
	}
	run, ph, _ = measureSockets(cls, dur-phaseDur)
	after, edge1 := snapshot(regs...), topo.proxy.Stats()
	clientRounds := snapshot(topo.regs.client).delta(client0)["avis_round_seconds"]
	shares, err := stopProf()
	if err != nil {
		return nil, err
	}
	if run.ops == 0 {
		return nil, fmt.Errorf("no traced fetch completed")
	}
	rep.count(run)
	d := after.delta(before)
	ops := float64(run.ops)
	m := zeroLayers()
	putShares(m, shares)
	m["cluster.resolve_us"] = run.resolve.meanUS()
	m["cluster.place_us"] = d.meanUS("cluster_placement_latency_seconds")
	m["cluster.session_start_p50_ms"] = quantile(run.startMS, 0.5)
	m["avis.connect_us"] = run.connect.meanUS()
	m["avis.round_us"] = run.round.meanUS()
	m["avis.round_p50_ms"] = quantile(run.roundMS, 0.5)
	m["avis.round_p90_ms"] = quantile(run.roundMS, 0.9)
	m["avis.server_us"] = d.meanUS("avis_request_seconds")
	m["avis.segments_per_round"] = ratio(d["avis_segments_total"].Value, d["avis_requests_total"].Value)
	m["avis.wire_kb_per_op"] = float64(run.wireBytes) / 1024 / ops

	// A round is serve time (origin, or edge in front of it), client codec
	// decode, and the wire in between: framing, writev and the socket.
	serveUS := m["avis.server_us"]
	if in.coarse {
		c, o := d["edge_serve_seconds{source=cache}"], d["edge_serve_seconds{source=origin}"]
		serveUS = ratio(c.Sum+o.Sum, c.Count+o.Count) * 1e6
	}
	var decodeSec float64
	for _, c := range codecs {
		m["compress.encode_us."+c] = d.meanUS("avis_codec_encode_seconds{codec=" + c + "}")
		m["compress.decode_us."+c] = d.meanUS("avis_codec_decode_seconds{codec=" + c + "}")
		m["compress.ratio."+c] = ratio(d["avis_codec_encode_in_bytes_total{codec="+c+"}"].Value,
			d["avis_codec_encode_out_bytes_total{codec="+c+"}"].Value)
		decodeSec += d["avis_codec_decode_seconds{codec="+c+"}"].Sum
	}
	decodeUS := ratio(decodeSec, float64(run.round.N)) * 1e6
	m["wire.transport_us"] = m["avis.round_us"] - serveUS - decodeUS
	m["wire.frames_per_op"] = (d["wire_frames_total{version=1}"].Value + d["wire_frames_total{version=2}"].Value) / ops

	extractUS, encodeUS, err := replayWavelet(topo.store, in.imageSeeds, run.reqs)
	if err != nil {
		return nil, err
	}
	m["wavelet.extract_us"] = extractUS
	m["wavelet.chunk_encode_us"] = encodeUS
	m["wavelet.decode_chunk_us"] = run.decode.meanUS()
	m["wavelet.apply_us"] = run.apply.meanUS()
	m["wavelet.reconstruct_us"] = run.reconstruct.meanUS()

	m["edge.hit_ratio"] = ratio(float64(edge1.Hits-edge0.Hits), float64(edge1.Hits-edge0.Hits+edge1.Misses-edge0.Misses))
	m["edge.serve_cache_us"] = d.meanUS("edge_serve_seconds{source=cache}")
	m["edge.serve_origin_us"] = d.meanUS("edge_serve_seconds{source=origin}")
	m["edge.origin_fetch_us"] = d.meanUS("edge_origin_fetch_seconds")

	m["runtime.alloc_kb_per_op"] = float64(ph.AllocBytes) / 1024 / ops
	m["runtime.gc_cpu_share"] = 100 * ph.GCShare
	// Stage sums: a fetch is its rounds. The driver's fetch clock is
	// compared with the program's own per-round instrument,
	// avis_round_seconds, which times each round from request written to
	// payload decoded; time the program's rounds do not cover — a stage
	// outside its instrument, or driver work inside the fetch — is the
	// remainder and must stay small. The round counts must agree exactly.
	if int64(clientRounds.Count) != run.round.N {
		rep.problem("client observed %.0f rounds, driver issued %d", clientRounds.Count, run.round.N)
	}
	unattributed := 100 * (1 - ratio(clientRounds.Sum, run.fetchTotal.Seconds()))
	m["bench.unattributed_pct"] = unattributed
	if math.Abs(unattributed) > 100*stageBound {
		rep.problem("client rounds leave %.1f%% of fetch time unattributed (bound %.0f%%)", unattributed, 100*stageBound)
	}
	tracedRate := ops / ph.Wall.Seconds()
	m["bench.trace_overhead_pct"] = 100 * (untracedRate - tracedRate) / untracedRate
	m["bench.latency_p90_ms"] = classQuantile(run.fetchMS, 0.9)
	m["bench.fetch_p99_ms"] = quantile(pooled(run.fetchMS), 0.99)
	rep.metrics = m
	return rep, nil
}

// count adds a phase's ops, failures and digest mismatches to the report.
func (r *report) count(run *clientRun) {
	r.attempted += run.ops
	r.failed += run.failed
	if run.checked == 0 {
		r.problem("no fetch of the phase was drawn for the output check")
	}
	if run.mismatch > 0 {
		r.problem("%d fetched canvases differ from their reference reconstruction", run.mismatch)
	}
}

// warmClients creates the closed-loop clients on one draw stream and runs
// them through the warm-up.
func warmClients(topo *topology, in *socketInputs, refs map[view]uint64, stream uint64, traced bool) ([]*client, error) {
	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = &client{
			id: i, topo: topo, in: in, refs: refs,
			draws:    newRNG(stream, fmt.Sprintf("client-%d", i)),
			checks:   newRNG(stream, fmt.Sprintf("check-%d", i)),
			res:      cluster.NewResolver(topo.coordAddr, ioTimeout),
			traced:   traced,
			checkAll: true,
		}
	}
	if w := runSockets(cls, warmup); w.failed > 0 || w.mismatch > 0 {
		closeClients(cls)
		return nil, fmt.Errorf("warm-up: %d of %d fetches failed", w.failed, w.ops)
	}
	for _, c := range cls {
		c.checkAll = false
	}
	return cls, nil
}

func closeClients(cls []*client) {
	for _, c := range cls {
		c.res.Close()
	}
}

// measureSockets runs the clients for one measured phase.
func measureSockets(cls []*client, dur time.Duration) (*clientRun, *phase, *windows) {
	ph := startPhase()
	win := startWindows()
	run := runSockets(cls, dur)
	win.end()
	ph.end()
	return run, ph, win
}

// replayWavelet times the served side of the wavelet layer by replaying
// the traced run's requests through ImageStore.Pyramid, ExtractRegion and
// AppendEncode, returning the mean microseconds of each of the last two.
func replayWavelet(store *avis.ImageStore, seeds []int64, reqs []avis.Request) (extractUS, encodeUS float64, err error) {
	var ext, enc spanStat
	buf := make([]byte, 0, 1<<16)
	for _, req := range reqs {
		pyr, err := store.Pyramid(imgSide, imgLevels, seeds[req.Image])
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		ch, err := pyr.ExtractRegion(req.Level, req.X, req.Y, req.R, req.PrevR)
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		buf = ch.AppendEncode(buf[:0])
		t2 := time.Now()
		ch.Release()
		ext.add(t1.Sub(t0))
		enc.add(t2.Sub(t1))
	}
	return ext.meanUS(), enc.meanUS(), nil
}

// runAdaptWorkload runs adapt-mix or adapt-drift: seeded virtual-time
// runs of the adaptation stack, one after another on one core.
func runAdaptWorkload(name string, seed uint64, dur time.Duration, traced bool) (*report, error) {
	rep := &report{detail: map[string]float64{}}
	isMix := name == "adapt-mix"
	exp, err := loadExpected()
	if err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	var setups []float64
	if !traced {
		if setups, err = childSetups(name, seed, setupChildren); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	var mix *mixApps
	if isMix {
		mix, err = setupMix()
	} else {
		err = setupDrift()
	}
	if err != nil {
		return nil, err
	}
	sweep := time.Since(t0)
	setups = append(setups, sweep.Seconds())
	if err := checkReference(mix, exp); err != nil {
		rep.problem("reference outcome: %v", err)
	}
	n := driftSeeds
	if isMix {
		n = mixSeeds
	}
	seeds := seedList(seed, name, n)

	phaseDur, minPass := dur, 1
	if traced {
		phaseDur, minPass = dur/3, 0
	}
	ph := startPhase()
	win := startWindows()
	run := measureAdapt(mix, seeds, phaseDur, minPass)
	win.end()
	ph.end()
	rep.countAdapt(run)
	untracedRate := float64(run.ops) / ph.Wall.Seconds()
	if !traced {
		perSec, cpuPerOp := win.rates(run.calls)
		if len(perSec) == 0 {
			return nil, fmt.Errorf("no seed run overlapped a full sampling window")
		}
		rep.metrics = map[string]float64{
			"setup_s":        median(setups),
			"ops_per_s":      median(perSec),
			"cpu_ms_per_op":  median(cpuPerOp),
			"heap_peak_mb":   float64(ph.PeakHeap) / (1 << 20),
			"latency_p50_ms": median(run.callMS),
		}
		rep.detail["latency_p90_ms"] = quantile(run.callMS, 0.9)
		adaptQoS(run, rep.detail, isMix)
		rep.detail["calls"] = float64(len(run.calls))
		rep.detail["heap_max_mb"] = float64(ph.MaxHeap) / (1 << 20)
		rep.detail["host_steal_pct"] = 100 * ph.StealShare
		rep.detail["windows"] = float64(len(perSec))
		return rep, nil
	}

	stopProf, err := profileCPU()
	if err != nil {
		return nil, err
	}
	ph = startPhase()
	run = measureAdapt(mix, seeds, dur-phaseDur, 0)
	ph.end()
	shares, err := stopProf()
	if err != nil {
		return nil, err
	}
	rep.countAdapt(run)
	ops := float64(run.ops)
	m := zeroLayers()
	putShares(m, shares)
	adaptQoS(run, m, isMix)
	if isMix {
		m["scheduler.admit_ratio"] = ratio(float64(run.admitted), float64(run.requested))
		m["scheduler.derated_per_session"] = ratio(float64(run.derated), float64(run.admitted))
		m["steering.switches_per_session"] = ratio(float64(run.swtch), float64(run.admitted))
	} else {
		m["core.triggers"] = ratio(float64(run.triggers), float64(run.passCalls))
		m["core.switches"] = ratio(float64(run.switches), float64(run.passCalls))
		var sum float64
		for _, v := range run.trigToSwitch {
			sum += v
		}
		m["core.trigger_to_switch_s"] = ratio(sum, float64(len(run.trigToSwitch)))
	}
	m["profiler.sweep_s"] = sweep.Seconds()
	m["runtime.alloc_kb_per_op"] = float64(ph.AllocBytes) / 1024 / ops
	m["runtime.gc_cpu_share"] = 100 * ph.GCShare
	tracedRate := ops / ph.Wall.Seconds()
	m["bench.trace_overhead_pct"] = 100 * (untracedRate - tracedRate) / untracedRate
	m["bench.latency_p90_ms"] = quantile(run.callMS, 0.9)
	rep.metrics = m
	return rep, nil
}

func (r *report) countAdapt(run *adaptRun) {
	r.attempted += run.ops
	r.failed += run.failed
	r.problems = append(r.problems, run.problems...)
}

// adaptQoS stores the QoS outcome of the run's first pass over its seeds.
func adaptQoS(run *adaptRun, m map[string]float64, isMix bool) {
	if isMix {
		m["qos.pass_rate"] = ratio(float64(run.passed), float64(run.requested))
		return
	}
	m["qos.deadline_hit_rate"] = ratio(float64(run.hits), float64(run.post))
	m["qos.virtual_total_s"] = ratio(run.virtTotal.Seconds(), float64(run.passCalls))
}
