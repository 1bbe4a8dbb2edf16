package avis

import (
	"errors"
	"fmt"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/metrics"
	"tunable/internal/netem"
	"tunable/internal/sandbox"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
	"tunable/internal/wavelet"
)

// RoundStat records one request/reply round (one trip of Figure 2's loop
// body, timed by its QoS_monitor blocks).
type RoundStat struct {
	Image    int
	Round    int
	Start    time.Duration
	Response time.Duration // t1 - t0
	RawBytes int
	Level    int
}

// ImageStat records one complete image download.
type ImageStat struct {
	Image        int
	Level        int
	Codec        string
	DR           int
	Start        time.Duration
	TransmitTime time.Duration // total image transmission time
	AvgResponse  time.Duration // mean round response time
	Rounds       int
	RawBytes     int64
	WireBytes    int64
	PSNR         float64 // only when verification is enabled; else 0
}

// Metrics renders the stat as the application's QoS metrics (seconds).
func (s ImageStat) Metrics() spec.Metrics {
	return spec.Metrics{
		"transmit_time": s.TransmitTime.Seconds(),
		"response_time": s.AvgResponse.Seconds(),
		"resolution":    float64(s.Level),
	}
}

// Client is the client-side component of the application, annotated per
// Figure 2: its FetchImage loop requests growing foveal regions,
// decompresses and displays them, and reports the three QoS metrics. A
// steering agent may be attached; configuration changes apply at round
// boundaries (the task's transition points), with resolution-level changes
// deferred to the next image.
type Client struct {
	sb     *sandbox.Sandbox
	ep     *netem.Endpoint
	cost   CostModel
	params Params
	geom   Geometry
	codec  compress.Codec

	steer  *steering.Agent
	verify bool
	store  *ImageStore
	seeds  []int64

	seq          int
	retryTimeout time.Duration // 0 disables loss recovery
	maxRetries   int
	retries      int64

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mFetchSeconds *metrics.Histogram
	mRoundSeconds *metrics.Histogram
	mRawBytes     *metrics.Counter
	mWireBytes    *metrics.Counter
	mRounds       *metrics.Counter
	mRetransmits  *metrics.Counter
	mImages       *metrics.Counter

	OnRound func(RoundStat)
	OnImage func(ImageStat)

	// interaction simulates check_for_user_interaction: invoked each
	// round, it may move the fovea (returning a new centre resets the
	// incremental transmission) — nil keeps the fovea fixed.
	interaction func(img, round int) (moveX, moveY int, moved bool)

	stats []ImageStat
}

// ClientOption customizes a client.
type ClientOption func(*Client)

// WithClientCost overrides the cost model.
func WithClientCost(c CostModel) ClientOption { return func(cl *Client) { cl.cost = c } }

// WithVerification enables canvas reconstruction and PSNR measurement
// against the source images (costly in real time; off by default).
func WithVerification(store *ImageStore, seeds []int64) ClientOption {
	return func(cl *Client) {
		cl.verify = true
		cl.store = store
		cl.seeds = seeds
	}
}

// WithInteraction installs a fovea-movement model.
func WithInteraction(fn func(img, round int) (int, int, bool)) ClientOption {
	return func(cl *Client) { cl.interaction = fn }
}

// WithRetry enables loss recovery: a round whose reply stalls for longer
// than timeout is retransmitted (up to maxRetries times per round), with
// per-attempt sequence numbers so stale segments from the aborted attempt
// are discarded.
func WithRetry(timeout time.Duration, maxRetries int) ClientOption {
	return func(cl *Client) {
		cl.retryTimeout = timeout
		cl.maxRetries = maxRetries
	}
}

// NewClient creates a client with the given initial parameters, running in
// sandbox sb over endpoint ep.
func NewClient(sb *sandbox.Sandbox, ep *netem.Endpoint, params Params, opts ...ClientOption) (*Client, error) {
	codec, err := compress.Lookup(params.Codec)
	if err != nil {
		return nil, err
	}
	c := &Client{
		sb:     sb,
		ep:     ep,
		cost:   DefaultCostModel(),
		params: params,
		codec:  codec,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// EnableMetrics instruments the client. Metric families:
// avis_fetch_seconds (per-image download latency histogram),
// avis_round_seconds (per-round response time), avis_raw_bytes_total,
// avis_wire_bytes_total, avis_rounds_total, avis_retransmits_total, and
// avis_images_total. Durations are virtual-time in simulated mode.
func (c *Client) EnableMetrics(reg *metrics.Registry) {
	c.mFetchSeconds = reg.Histogram("avis_fetch_seconds", "Per-image download latency.")
	c.mRoundSeconds = reg.Histogram("avis_round_seconds", "Per-round response time.")
	c.mRawBytes = reg.Counter("avis_raw_bytes_total", "Uncompressed payload bytes received.")
	c.mWireBytes = reg.Counter("avis_wire_bytes_total", "Compressed bytes on the wire.")
	c.mRounds = reg.Counter("avis_rounds_total", "Request/reply rounds completed.")
	c.mRetransmits = reg.Counter("avis_retransmits_total", "Round retransmissions after stalls.")
	c.mImages = reg.Counter("avis_images_total", "Images fully downloaded.")
}

// Params returns the currently active parameters.
func (c *Client) Params() Params { return c.params }

// Stats returns per-image statistics collected so far.
func (c *Client) Stats() []ImageStat { return c.stats }

// Retries returns the number of round retransmissions performed.
func (c *Client) Retries() int64 { return c.retries }

// AttachSteering connects a steering agent: the client polls it at round
// boundaries and registers the notify_server transition action, which
// sends the codec announcement to the server exactly as the annotated
// transition block of Figure 2 does.
func (c *Client) AttachSteering(agent *steering.Agent) {
	c.steer = agent
	agent.OnAction("notify_server", func(p *vtime.Proc, cur, next spec.Config) {
		if v, ok := next["c"]; ok {
			c.notify(p, v.S)
		}
	})
}

// Connect performs the geometry handshake and announces the initial
// compression type.
func (c *Client) Connect(p *vtime.Proc) error {
	c.ep.Send(p, EncodeHello())
	raw, ok := c.ep.Recv(p)
	if !ok {
		return fmt.Errorf("avis: connection closed during handshake")
	}
	geom, err := DecodeGeom(raw)
	if err != nil {
		return err
	}
	c.geom = geom
	c.notify(p, c.params.Codec)
	return nil
}

// Close ends the session.
func (c *Client) Close(p *vtime.Proc) {
	c.ep.Send(p, EncodeClose())
	c.ep.Close()
}

// Geometry returns the server-announced image geometry.
func (c *Client) Geometry() Geometry { return c.geom }

func (c *Client) notify(p *vtime.Proc, codecName string) {
	codec, err := compress.Lookup(codecName)
	if err != nil {
		return
	}
	c.codec = codec
	c.ep.Send(p, EncodeNotify(codecName))
}

// maybeSteer polls the steering agent at a transition point. Level changes
// are deferred to the next image (the resolution of an in-flight image is
// fixed); dR and codec changes take effect on the next round.
func (c *Client) maybeSteer(p *vtime.Proc, activeLevel int) int {
	if c.steer == nil {
		return activeLevel
	}
	cfg, switched := c.steer.MaybeApply(p)
	if !switched {
		return activeLevel
	}
	np, err := ParamsFromConfig(cfg)
	if err != nil {
		return activeLevel
	}
	// The notify_server action already ran inside MaybeApply; mirror the
	// parameter values locally.
	c.params = np
	if codec, err := compress.Lookup(np.Codec); err == nil {
		c.codec = codec
	}
	return activeLevel // level latched until the next image
}

// levelSize returns image.size(l): the image side at level l.
func (c *Client) levelSize(l int) int {
	return (c.geom.Side >> c.geom.Levels) << l
}

// FetchImage downloads one image: the annotated while-loop of Figure 2.
func (c *Client) FetchImage(p *vtime.Proc, img int) (ImageStat, error) {
	if c.geom.Side == 0 {
		return ImageStat{}, fmt.Errorf("avis: not connected")
	}
	if img < 0 || img >= c.geom.NumImages {
		return ImageStat{}, fmt.Errorf("avis: image %d out of range", img)
	}
	activeLevel := c.params.Level
	activeLevel = c.maybeSteer(p, activeLevel)
	if activeLevel != c.params.Level {
		activeLevel = c.params.Level // a pre-image switch takes effect now
	}
	size := c.levelSize(activeLevel)
	scale := c.geom.Side / size // level-l units → full-resolution units
	x, y := c.geom.Side/2, c.geom.Side/2
	var canvas *wavelet.Canvas
	if c.verify {
		var err error
		canvas, err = wavelet.NewCanvas(c.geom.Side, c.geom.Levels)
		if err != nil {
			return ImageStat{}, err
		}
	}

	stat := ImageStat{
		Image: img,
		Level: activeLevel,
		Codec: c.params.Codec,
		DR:    c.params.DR,
		Start: p.Now(),
	}
	var respSum time.Duration
	r, prevR := 0, 0
	round := 0
	for r < size {
		t0 := p.Now() // QoS_monitor { t0 = clock(); }
		r += c.params.DR
		if r > size {
			r = size
		}
		// Radii in full-resolution half-side units for extraction.
		fullR := r * scale / 2
		fullPrev := prevR * scale / 2
		if fullR <= fullPrev {
			// Degenerate increment (dR smaller than one full-res pixel at
			// this level); skip ahead.
			prevR = r
			continue
		}
		var rawBytes, wireBytes int
		var err error
		for attempt := 0; ; attempt++ {
			c.seq++
			req := Request{
				Image: img, Seq: c.seq,
				X: x, Y: y, R: fullR, PrevR: fullPrev, Level: activeLevel,
			}
			c.ep.Send(p, EncodeRequest(req))
			rawBytes, wireBytes, err = c.receiveRound(p, img, c.seq, canvas)
			if errors.Is(err, errRoundStalled) && attempt < c.maxRetries {
				c.retries++
				c.mRetransmits.Inc()
				continue
			}
			break
		}
		if err != nil {
			return ImageStat{}, err
		}
		stat.WireBytes += int64(wireBytes)
		// check_for_user_interaction(&x, &y, &r, &dR)
		c.sb.Compute(p, c.cost.RoundOverheadCycles)
		if c.interaction != nil {
			if nx, ny, moved := c.interaction(img, round); moved {
				x, y = nx, ny
				r, prevR = 0, 0
			} else {
				prevR = r
			}
		} else {
			prevR = r
		}
		t1 := p.Now() // QoS_monitor { t1 = clock(); ... }
		respSum += t1 - t0
		stat.RawBytes += int64(rawBytes)
		round++
		c.mRoundSeconds.Observe((t1 - t0).Seconds())
		c.mRounds.Inc()
		c.mRawBytes.Add(float64(rawBytes))
		c.mWireBytes.Add(float64(wireBytes))
		if c.OnRound != nil {
			c.OnRound(RoundStat{
				Image: img, Round: round, Start: t0,
				Response: t1 - t0, RawBytes: rawBytes, Level: activeLevel,
			})
		}
		// transition (new_control) { ... } — the annotated transition
		// point at the bottom of the loop body.
		activeLevel = c.maybeSteer(p, activeLevel)
	}
	stat.TransmitTime = p.Now() - stat.Start
	stat.Rounds = round
	if round > 0 {
		stat.AvgResponse = respSum / time.Duration(round)
	}
	if c.verify && canvas != nil {
		img0 := c.store.Image(c.geom.Side, c.seeds[img])
		recon, err := canvas.Reconstruct(activeLevel)
		if err != nil {
			return ImageStat{}, err
		}
		ref := img0.Downsample(c.geom.Levels - activeLevel)
		psnr, err := refPSNR(ref, recon)
		if err != nil {
			return ImageStat{}, err
		}
		stat.PSNR = psnr
	}
	c.mFetchSeconds.Observe(stat.TransmitTime.Seconds())
	c.mImages.Inc()
	c.stats = append(c.stats, stat)
	if c.OnImage != nil {
		c.OnImage(stat)
	}
	return stat, nil
}

// errRoundStalled reports a reply that stopped arriving within the retry
// timeout (a lost request or segment on a lossy link).
var errRoundStalled = errors.New("avis: round stalled")

// receiveRound drains reply segments until the final one, charging decode
// and display cost per segment (so client computation overlaps the
// arrival of later segments), then performs the real decompression and
// optional canvas update. Segments whose sequence number does not match
// the current attempt are stale retransmission leftovers and are dropped.
func (c *Client) receiveRound(p *vtime.Proc, img, seq int, canvas *wavelet.Canvas) (raw, wire int, err error) {
	compressed := bufpool.Get(1 << 12)[:0]
	defer func() { bufpool.Put(compressed) }()
	rawTotal := 0
	decCost := c.cost.DecodeCyclesPerByte * c.codec.DecodeCost()
	for {
		var msg []byte
		var ok bool
		if c.retryTimeout > 0 {
			var ready bool
			msg, ok, ready = c.ep.RecvTimeout(p, c.retryTimeout)
			if !ready {
				return 0, 0, errRoundStalled
			}
		} else {
			msg, ok = c.ep.Recv(p)
		}
		if !ok {
			return 0, 0, fmt.Errorf("avis: connection closed mid-round")
		}
		if len(msg) == 0 {
			continue
		}
		if msg[0] == TagError {
			return 0, 0, fmt.Errorf("avis: server error: %s", msg[1:])
		}
		seg, err := DecodeSegment(msg)
		if err != nil {
			return 0, 0, err
		}
		if seg.Seq != seq {
			continue // stale segment from an aborted attempt
		}
		if seg.Image != img {
			return 0, 0, fmt.Errorf("avis: segment for image %d during image %d", seg.Image, img)
		}
		// decompress(c, &data); update_display(...) — cost charged per
		// segment.
		c.sb.Compute(p, decCost*float64(seg.Raw)+c.cost.DisplayCyclesPerPixel*float64(seg.Raw))
		compressed = append(compressed, seg.Payload...)
		rawTotal += seg.Raw
		if seg.Last {
			break
		}
	}
	// Real decompression and reconstruction (already charged above).
	data, err := c.codec.Decode(compressed)
	if err != nil {
		return 0, 0, fmt.Errorf("avis: decode: %w", err)
	}
	defer bufpool.Put(data)
	if canvas != nil {
		chunk, err := wavelet.DecodeChunk(data)
		if err != nil {
			return 0, 0, err
		}
		err = canvas.Apply(chunk)
		chunk.Release()
		if err != nil {
			return 0, 0, err
		}
	}
	return len(data), len(compressed), nil
}
