package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"tunable/internal/avis"
	"tunable/internal/bufpool"
	"tunable/internal/cluster"
	"tunable/internal/edge"
	"tunable/internal/metrics"
	"tunable/internal/wavelet"
)

// Socket workload shape. Both socket workloads boot the same topology —
// coordinator, one origin, one edge in front of it — and differ only in
// what their sessions ask for.
const (
	imgSide   = 512
	imgLevels = 4
	numImages = 8
	hotspots  = 16
	// clients is the number of closed-loop clients, one per core of the
	// 2-core machine the benchmark was sized on. An open loop was tried on
	// coarse-edge and rejected: queueing on two shared cores turned
	// scheduler stalls into a p99 that ranged 13-122 ms across identical
	// runs.
	clients         = 2
	viewsPerSession = 2
	ioTimeout       = 10 * time.Second
	// replayCap bounds the per-client request log replayed through the
	// wavelet layer after a traced run.
	replayCap = 1024
	// checkEvery: in a measured phase one fetch in checkEvery, drawn from
	// the client's seeded check stream, is rendered and compared with its
	// reference. Rendering every fetch would put the check's own canvas
	// work (a zeroed 512² canvas, Apply and Reconstruct) into the timed
	// figures; the program's client does that only under -verify. Warm-up
	// checks every fetch.
	checkEvery = 16
)

// hotSkew is the Zipf exponent of hotspot popularity: some regions of
// each image draw more views than others, as browsing does. It is set
// from recorded evidence, not from what the benchmark's checks need: the
// coarse-browse prototype ran at an edge hit ratio of about 0.8, and 0.8
// gives that against the default edge cache (0.79 measured; uniform
// popularity gives 0.67). Web proxy traces fit Zipf exponents of
// 0.64-0.83 (Breslau et al., "Web Caching and Zipf-like Distributions",
// INFOCOM 1999).
const hotSkew = 0.8

// view is one progressive fetch: image, resolution level, fovea
// increment and fovea centre (full-resolution coordinates). It is also
// the key of the reference digest.
type view struct {
	img, level, dr, x, y int
}

// socketInputs is everything the seed decides for a socket workload.
type socketInputs struct {
	coarse     bool
	imageSeeds []int64
	hot        [numImages][hotspots][2]int
	hotCum     []float64
}

func newSocketInputs(seed uint64, coarse bool) *socketInputs {
	in := &socketInputs{coarse: coarse}
	r := newRNG(seed, "images")
	for i := 0; i < numImages; i++ {
		in.imageSeeds = append(in.imageSeeds, int64(r.next()>>34)+1)
	}
	h := newRNG(seed, "hotspots")
	for i := range in.hot {
		for k := range in.hot[i] {
			in.hot[i][k] = [2]int{64 + h.intn(imgSide-128), 64 + h.intn(imgSide-128)}
		}
	}
	sum := 0.0
	for k := 0; k < hotspots; k++ {
		sum += 1 / math.Pow(float64(k+1), hotSkew)
		in.hotCum = append(in.hotCum, sum)
	}
	return in
}

// fineView is a fovea-origin view: full resolution, dR 32, centred.
func fineView(img int) view { return view{img, imgLevels, 32, imgSide / 2, imgSide / 2} }

// coarseView is a coarse-edge view: level 2 or 3 at dR 8 around a hotspot.
func coarseView(img, level int, h [2]int) view { return view{img, level, 8, h[0], h[1]} }

// allViews lists every view the workload can draw.
func (in *socketInputs) allViews() []view {
	var out []view
	for img := 0; img < numImages; img++ {
		if !in.coarse {
			out = append(out, fineView(img))
			continue
		}
		for level := 2; level <= 3; level++ {
			for _, h := range in.hot[img] {
				out = append(out, coarseView(img, level, h))
			}
		}
	}
	return out
}

// drawSession picks one session's codec and views. Fovea sessions take
// lzw and bzw 1:1, in a seeded order within each pair of sessions, so
// every run has the same codec mix.
func (in *socketInputs) drawSession(r *rng, bag *[]string) (codec string, views []view) {
	if !in.coarse {
		if len(*bag) == 0 {
			*bag = []string{"lzw", "bzw"}
			if r.intn(2) == 1 {
				*bag = []string{"bzw", "lzw"}
			}
		}
		codec, *bag = (*bag)[0], (*bag)[1:]
		for i := 0; i < viewsPerSession; i++ {
			views = append(views, fineView(r.intn(numImages)))
		}
		return codec, views
	}
	for i := 0; i < viewsPerSession; i++ {
		img := r.intn(numImages)
		level := 2 + r.intn(2)
		views = append(views, coarseView(img, level, in.hot[img][r.pick(in.hotCum)]))
	}
	return "raw", views
}

// rounds is the request sequence of one view: PlanRounds with the fovea
// re-centred on the view's centre.
func rounds(g avis.Geometry, v view) []avis.Request {
	reqs := avis.PlanRounds(g, avis.Params{DR: v.dr, Level: v.level}, v.img, 0)
	for i := range reqs {
		reqs[i].X, reqs[i].Y = v.x, v.y
	}
	return reqs
}

// digestImage fingerprints a reconstruction bit for bit (FNV-1a over the
// float64 bit patterns; the check guards against defects, not forgery).
func digestImage(pix []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range pix {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

// referenceDigests replays every view's rounds through the wavelet layer
// alone — ExtractRegion, AppendEncode, DecodeChunk, Canvas.Apply,
// Reconstruct — with no sockets and no codec, giving the image each
// fetched canvas must reproduce.
func referenceDigests(store *avis.ImageStore, in *socketInputs) (map[view]uint64, error) {
	g := avis.Geometry{Side: imgSide, Levels: imgLevels, NumImages: numImages}
	out := make(map[view]uint64)
	for _, v := range in.allViews() {
		pyr, err := store.Pyramid(imgSide, imgLevels, in.imageSeeds[v.img])
		if err != nil {
			return nil, err
		}
		canvas, err := wavelet.NewCanvas(imgSide, imgLevels)
		if err != nil {
			return nil, err
		}
		for _, req := range rounds(g, v) {
			ch, err := pyr.ExtractRegion(req.Level, req.X, req.Y, req.R, req.PrevR)
			if err != nil {
				return nil, err
			}
			raw := ch.AppendEncode(nil)
			ch.Release()
			dec, err := wavelet.DecodeChunk(raw)
			if err != nil {
				return nil, err
			}
			err = canvas.Apply(dec)
			dec.Release()
			if err != nil {
				return nil, err
			}
		}
		im, err := canvas.Reconstruct(v.level)
		if err != nil {
			return nil, err
		}
		out[v] = digestImage(im.Pix)
	}
	return out, nil
}

// registries holds one metrics registry per component of a traced
// topology; all nil when untraced.
type registries struct {
	coord, origin, edge, client *metrics.Registry
}

// topology is the booted cluster: coordinator, origin server and edge
// proxy, each with its agent, all on loopback.
type topology struct {
	store     *avis.ImageStore
	coordAddr string
	regs      registries
	proxy     *edge.Proxy

	coord    *cluster.Coordinator
	stopTick func()
	origin   *avis.RealServer
	agents   []*cluster.Agent
	serving  sync.WaitGroup
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// bootTopology warms the image pyramids and starts every node, returning
// once the coordinator lists the origin and the edge alive. With traced
// set, each component reports into its own registry.
func bootTopology(imageSeeds []int64, traced bool) (t *topology, err error) {
	t = &topology{store: avis.NewImageStore()}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if traced {
		t.regs = registries{metrics.New(), metrics.New(), metrics.New(), metrics.New()}
	}
	for _, s := range imageSeeds {
		if _, err := t.store.Pyramid(imgSide, imgLevels, s); err != nil {
			return t, err
		}
	}

	t.coord = cluster.NewCoordinator(cluster.Config{})
	if traced {
		t.coord.EnableMetrics(t.regs.coord)
	}
	lc, err := listen()
	if err != nil {
		return t, err
	}
	t.coordAddr = lc.Addr().String()
	t.serve(func() error { return t.coord.Serve(lc) })
	t.stopTick = t.coord.StartTicker(250 * time.Millisecond)

	t.origin, err = avis.NewRealServer(imgSide, imgLevels, imageSeeds, t.store)
	if err != nil {
		return t, err
	}
	t.origin.SetIOTimeout(ioTimeout)
	if traced {
		t.origin.EnableMetrics(t.regs.origin)
	}
	lo, err := listen()
	if err != nil {
		return t, err
	}
	t.serve(func() error { return t.origin.Serve(lo) })
	originInfo := cluster.NodeInfo{
		ID: "origin-1", Addr: lo.Addr().String(), CPU: 1,
		Side: imgSide, Levels: imgLevels, Seeds: imageSeeds,
	}
	if err := t.join(originInfo, t.origin.ActiveSessions); err != nil {
		return t, err
	}

	t.proxy, err = edge.New(edge.Config{
		OriginAddr: lo.Addr().String(),
		Sig:        originInfo.StoreSig(),
		IOTimeout:  ioTimeout,
	})
	if err != nil {
		return t, err
	}
	if traced {
		t.proxy.EnableMetrics(t.regs.edge)
	}
	if err := t.proxy.Start(); err != nil {
		return t, err
	}
	le, err := listen()
	if err != nil {
		return t, err
	}
	t.serve(func() error { return t.proxy.Serve(le) })
	edgeInfo := cluster.NodeInfo{
		ID: "edge-1", Addr: le.Addr().String(), Role: cluster.RoleEdge, CPU: 1,
		Side: imgSide, Levels: imgLevels, Sig: originInfo.StoreSig(),
	}
	if err := t.join(edgeInfo, t.proxy.ActiveSessions); err != nil {
		return t, err
	}
	return t, t.waitAlive(2)
}

func (t *topology) serve(fn func() error) {
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		_ = fn() // returns net.ErrClosed on shutdown
	}()
}

func (t *topology) join(info cluster.NodeInfo, active func() int) error {
	a := cluster.NewAgent(t.coordAddr, info, cluster.DefaultHeartbeat, func() cluster.Load {
		return cluster.Load{ActiveSessions: active()}
	})
	if err := a.Start(); err != nil {
		return fmt.Errorf("join %s: %w", info.ID, err)
	}
	t.agents = append(t.agents, a)
	return nil
}

func (t *topology) waitAlive(n int) error {
	r := cluster.NewResolver(t.coordAddr, ioTimeout)
	defer r.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		nodes, err := r.Nodes()
		if err != nil {
			return err
		}
		alive := 0
		for _, nd := range nodes {
			if nd.State == "alive" {
				alive++
			}
		}
		if alive >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d nodes alive", alive, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops every node and waits for their accept loops to return.
func (t *topology) close() {
	for _, a := range t.agents {
		a.Close(true)
	}
	if t.proxy != nil {
		t.proxy.Shutdown(2 * time.Second)
	}
	if t.origin != nil {
		t.origin.Shutdown(2 * time.Second)
	}
	if t.stopTick != nil {
		t.stopTick()
	}
	if t.coord != nil {
		t.coord.Shutdown(2 * time.Second)
	}
	t.serving.Wait()
}

// clientRun is what one closed-loop client measured.
type clientRun struct {
	fetchMS          map[string][]float64 // by codec and level
	roundMS, startMS []float64
	fetches          []interval
	ops, failed      int
	wireBytes        int64
	checked          int
	mismatch         int

	// traced only
	resolve, connect, round, decode, apply, reconstruct spanStat
	fetchTotal                                          time.Duration
	reqs                                                []avis.Request
}

func (c *clientRun) merge(o *clientRun) {
	if c.fetchMS == nil {
		c.fetchMS = map[string][]float64{}
	}
	for k, v := range o.fetchMS {
		c.fetchMS[k] = append(c.fetchMS[k], v...)
	}
	c.roundMS = append(c.roundMS, o.roundMS...)
	c.fetches = append(c.fetches, o.fetches...)
	c.startMS = append(c.startMS, o.startMS...)
	c.ops += o.ops
	c.failed += o.failed
	c.wireBytes += o.wireBytes
	c.checked += o.checked
	c.mismatch += o.mismatch
	c.resolve.merge(o.resolve)
	c.connect.merge(o.connect)
	c.round.merge(o.round)
	c.decode.merge(o.decode)
	c.apply.merge(o.apply)
	c.reconstruct.merge(o.reconstruct)
	c.fetchTotal += o.fetchTotal
	c.reqs = append(c.reqs, o.reqs...)
}

// client is one closed-loop viewer: it opens a session, fetches its
// views one after another, closes, and starts the next session.
type client struct {
	id     int
	topo   *topology
	in     *socketInputs
	refs   map[view]uint64
	draws  *rng
	checks *rng
	res    *cluster.Resolver
	traced bool
	// checkAll checks every fetch instead of a drawn subset (warm-up).
	checkAll bool
	nsess    int
	codecs   []string
}

// runSockets drives every client until the deadline and merges their
// results. Each client finishes the session it is in when the deadline
// passes.
func runSockets(cls []*client, dur time.Duration) *clientRun {
	deadline := time.Now().Add(dur)
	runs := make([]*clientRun, len(cls))
	var wg sync.WaitGroup
	for i, c := range cls {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := &clientRun{fetchMS: map[string][]float64{}}
			for time.Now().Before(deadline) {
				c.session(run)
			}
			runs[i] = run
		}()
	}
	wg.Wait()
	all := &clientRun{}
	for _, r := range runs {
		all.merge(r)
	}
	return all
}

func (c *client) session(run *clientRun) {
	codec, views := c.in.drawSession(c.draws, &c.codecs)
	c.nsess++
	sid := fmt.Sprintf("c%d-s%d", c.id, c.nsess)
	fail := func() {
		run.ops += len(views)
		run.failed += len(views)
	}
	t0 := time.Now()
	grant, err := c.res.Resolve(cluster.ResolveRequest{SID: sid, Coarse: c.in.coarse})
	if err != nil {
		fail()
		return
	}
	defer func() { _ = c.res.EndSession(sid) }()
	t1 := time.Now()
	conn, err := net.DialTimeout("tcp", grant.Addr, ioTimeout)
	if err != nil {
		fail()
		return
	}
	rc, err := avis.NewRealClient(conn, avis.Params{Codec: codec})
	if err != nil {
		conn.Close()
		fail()
		return
	}
	defer rc.Close()
	rc.SetIOTimeout(ioTimeout)
	if c.traced {
		rc.EnableMetrics(c.topo.regs.client)
	}
	if err := rc.Connect(); err != nil {
		fail()
		return
	}
	t2 := time.Now()
	run.startMS = append(run.startMS, ms(t2.Sub(t0)))
	if c.traced {
		run.resolve.add(t1.Sub(t0))
		run.connect.add(t2.Sub(t1))
	}
	for _, v := range views {
		run.ops++
		if err := c.fetch(rc, codec, v, run); err != nil {
			run.failed++
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fetch downloads one view round by round. Like the program's own client
// without -verify, it does not render: each round ends when its payload
// is received and decoded by the session codec. Fetch time runs from the
// first request written to the last round decoded. A fetch drawn for the
// output check keeps its round payloads and renders and checks them after
// the fetch has ended, so every fetch is timed the same way.
func (c *client) fetch(rc *avis.RealClient, codec string, v view, run *clientRun) error {
	reqs := rounds(rc.Geometry(), v)
	check := c.checkAll || c.checks.intn(checkEvery) == 0
	var held [][]byte
	defer func() {
		for _, data := range held {
			bufpool.Put(data)
		}
	}()
	start := time.Now()
	for _, req := range reqs {
		r0 := time.Now()
		var wireN int
		var err error
		if check {
			var data []byte
			data, wireN, err = rc.FetchRoundRaw(req)
			if err == nil {
				held = append(held, data)
			}
		} else {
			_, wireN, err = rc.FetchRound(req, nil)
		}
		if err != nil {
			return err
		}
		r1 := time.Now()
		run.roundMS = append(run.roundMS, ms(r1.Sub(r0)))
		run.wireBytes += int64(wireN)
		if c.traced {
			run.round.add(r1.Sub(r0))
			if len(run.reqs) < replayCap {
				run.reqs = append(run.reqs, req)
			}
		}
	}
	end := time.Now()
	fetch := end.Sub(start)
	class := fmt.Sprintf("%s/L%d", codec, v.level)
	run.fetchMS[class] = append(run.fetchMS[class], ms(fetch))
	run.fetches = append(run.fetches, interval{start, end, 1})
	if c.traced {
		run.fetchTotal += fetch
	}
	if !check {
		return nil
	}
	run.checked++
	return c.check(v, held, run)
}

// check renders a fetch's round payloads onto a fresh canvas — DecodeChunk
// and Apply per round, then Reconstruct — and compares the image with the
// view's reference digest.
func (c *client) check(v view, payloads [][]byte, run *clientRun) error {
	canvas, err := wavelet.NewCanvas(imgSide, imgLevels)
	if err != nil {
		return err
	}
	for _, data := range payloads {
		t0 := time.Now()
		chunk, err := wavelet.DecodeChunk(data)
		if err != nil {
			return err
		}
		t1 := time.Now()
		err = canvas.Apply(chunk)
		chunk.Release()
		if err != nil {
			return err
		}
		if c.traced {
			run.decode.add(t1.Sub(t0))
			run.apply.add(time.Since(t1))
		}
	}
	t0 := time.Now()
	im, err := canvas.Reconstruct(v.level)
	if err != nil {
		return err
	}
	if c.traced {
		run.reconstruct.add(time.Since(t0))
	}
	if digestImage(im.Pix) != c.refs[v] {
		run.mismatch++
		return fmt.Errorf("view %+v: reconstruction differs from reference", v)
	}
	return nil
}
