package avis

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/metrics"
	"tunable/internal/netem"
	"tunable/internal/wavelet"
	"tunable/internal/wire"
)

// Real-network deployment mode: the same wire protocol, wavelet pyramid,
// and codecs as the simulated experiments, but spoken over actual TCP with
// wall-clock timing. Compute costs are the real costs of the real work, so
// no sandbox metering applies; optional token-bucket shaping (package
// netem) stands in for constrained links. Used by cmd/avis-server and
// cmd/avis-client.

// ErrIOTimeout is the sentinel matched by errors.Is for frame I/O that
// missed its deadline; the concrete error is always a *TimeoutError.
var ErrIOTimeout = errors.New("avis: i/o timeout")

// TimeoutError reports that a frame read or write made no progress within
// the configured I/O timeout — the peer is dead, wedged, or unreachable.
// It implements net.Error's Timeout contract and matches ErrIOTimeout
// under errors.Is.
type TimeoutError struct {
	Op    string        // "read" or "write"
	After time.Duration // the deadline that expired
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("avis: %s frame: no progress within %v (dead peer?)", e.Op, e.After)
}

// Timeout reports true, satisfying the net.Error convention.
func (e *TimeoutError) Timeout() bool { return true }

// Is matches ErrIOTimeout.
func (e *TimeoutError) Is(target error) bool { return target == ErrIOTimeout }

// WrapTimeout converts a deadline-exceeded network error into a typed
// *TimeoutError (matching ErrIOTimeout under errors.Is); other errors,
// including nil, pass through unchanged. The cluster control plane and
// the edge tier share it, so a dead peer surfaces with one vocabulary.
func WrapTimeout(op string, after time.Duration, err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &TimeoutError{Op: op, After: after}
	}
	return err
}

// codecInstruments carries the per-codec data-plane telemetry of one
// direction (encode on the server, decode on the client). All methods are
// nil-safe so uninstrumented deployments pay only a map lookup.
type codecInstruments struct {
	seconds  *metrics.Histogram
	inBytes  *metrics.Counter
	outBytes *metrics.Counter
}

func (ci *codecInstruments) observe(sec float64, in, out int) {
	if ci == nil {
		return
	}
	ci.seconds.Observe(sec)
	ci.inBytes.Add(float64(in))
	ci.outBytes.Add(float64(out))
}

// newCodecInstruments registers one instrument set per registered codec,
// labeled codec="<name>", under the given metric-family prefix
// (avis_codec_encode or avis_codec_decode).
func newCodecInstruments(reg *metrics.Registry, dir string) map[string]*codecInstruments {
	m := make(map[string]*codecInstruments, 4)
	for _, name := range compress.Names() {
		l := metrics.L("codec", name)
		m[name] = &codecInstruments{
			seconds: reg.Histogram("avis_codec_"+dir+"_seconds",
				"Wall-clock time of one codec "+dir+" call.", l),
			inBytes: reg.Counter("avis_codec_"+dir+"_in_bytes_total",
				"Bytes fed into the codec "+dir+" path.", l),
			outBytes: reg.Counter("avis_codec_"+dir+"_out_bytes_total",
				"Bytes produced by the codec "+dir+" path.", l),
		}
	}
	return m
}

// RealServer serves the visualization protocol over net.Conn connections.
type RealServer struct {
	geom      Geometry
	seeds     []int64
	store     *ImageStore
	segBytes  int
	ioTimeout time.Duration

	// connection accounting for load reporting and graceful drain; conns
	// and listeners are guarded by connMu, active is read lock-free by
	// heartbeat load callbacks.
	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	listeners []net.Listener
	draining  bool
	wg        sync.WaitGroup
	active    atomic.Int64

	// stats are lock-free atomics: every handler goroutine bumps them.
	stats serverCounters

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mConns       *metrics.Counter
	mRequests    *metrics.Counter
	mReqSeconds  *metrics.Histogram
	mSentBytes   *metrics.Counter
	mSegments    *metrics.Counter
	mErrors      *metrics.Counter
	mIOTimeouts  *metrics.Counter
	mCodecSwitch *metrics.Counter
	mCodec       map[string]*codecInstruments
	wInst        wire.Instruments
}

// SetIOTimeout bounds how long a frame read or write on a connection may
// go without progress before the connection is dropped with a
// *TimeoutError (0, the default, waits forever). It applies to
// connections accepted after the call.
func (s *RealServer) SetIOTimeout(d time.Duration) { s.ioTimeout = d }

// EnableMetrics instruments the server. Metric families:
// avis_connections_total, avis_requests_total, avis_request_seconds
// (per-request serve latency), avis_sent_bytes_total (compressed bytes
// written), avis_segments_total, avis_codec_switches_total,
// avis_errors_total, avis_io_timeouts_total, and — labeled per codec —
// avis_codec_encode_seconds, avis_codec_encode_in_bytes_total, and
// avis_codec_encode_out_bytes_total.
func (s *RealServer) EnableMetrics(reg *metrics.Registry) {
	s.mConns = reg.Counter("avis_connections_total", "Client connections accepted.")
	s.mRequests = reg.Counter("avis_requests_total", "Foveal region requests served.")
	s.mReqSeconds = reg.Histogram("avis_request_seconds",
		"Wall-clock latency of serving one region request (extract, encode, write).")
	s.mSentBytes = reg.Counter("avis_sent_bytes_total", "Compressed reply bytes written.")
	s.mSegments = reg.Counter("avis_segments_total", "Reply segments written.")
	s.mCodecSwitch = reg.Counter("avis_codec_switches_total", "Codec change notifications honored.")
	s.mErrors = reg.Counter("avis_errors_total", "Protocol or serve errors returned to clients.")
	s.mIOTimeouts = reg.Counter("avis_io_timeouts_total", "Connections dropped on frame I/O timeout.")
	s.mCodec = newCodecInstruments(reg, "encode")
	s.wInst = wire.NewInstruments(reg)
}

// NewRealServer creates a server for the given synthetic image set.
func NewRealServer(side, levels int, seeds []int64, store *ImageStore) (*RealServer, error) {
	if side <= 0 || levels <= 0 || len(seeds) == 0 {
		return nil, fmt.Errorf("avis: invalid real-server geometry")
	}
	if store == nil {
		store = sharedStore
	}
	return &RealServer{
		geom:     Geometry{Side: side, Levels: levels, NumImages: len(seeds)},
		seeds:    seeds,
		store:    store,
		segBytes: DefaultSegmentBytes,
	}, nil
}

// Serve accepts connections until the listener closes, handling each in
// its own goroutine. After Shutdown it returns net.ErrClosed.
func (s *RealServer) Serve(l net.Listener) error {
	s.connMu.Lock()
	if s.draining {
		s.connMu.Unlock()
		return net.ErrClosed
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.listeners = append(s.listeners, l)
	s.connMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.connMu.Lock()
		if s.draining {
			s.connMu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.active.Add(1)
		s.wg.Add(1)
		s.connMu.Unlock()
		go func() {
			defer func() {
				conn.Close()
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				s.active.Add(-1)
				s.wg.Done()
			}()
			_ = s.handle(conn)
		}()
	}
}

// ActiveSessions reports the number of client connections currently being
// served; node agents feed it into cluster heartbeats as the load signal.
func (s *RealServer) ActiveSessions() int { return int(s.active.Load()) }

// Stats returns a consistent snapshot of the cumulative serving counters.
// Safe to call concurrently with live sessions.
func (s *RealServer) Stats() ServerStats { return s.stats.snapshot() }

// Shutdown drains the server: it stops accepting (closing every listener
// passed to Serve), waits up to timeout for in-flight sessions to finish,
// then force-closes the stragglers. It returns the number of connections
// that had to be force-closed. Safe to call once; Serve calls unblock with
// net.ErrClosed.
func (s *RealServer) Shutdown(timeout time.Duration) int {
	s.connMu.Lock()
	s.draining = true
	for _, l := range s.listeners {
		_ = l.Close()
	}
	s.listeners = nil
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	forced := 0
	select {
	case <-done:
	case <-time.After(timeout):
		s.connMu.Lock()
		forced = len(s.conns)
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.connMu.Unlock()
		<-done
	}
	return forced
}

// handle services one connection.
func (s *RealServer) handle(conn net.Conn) error {
	s.mConns.Inc()
	wc := wire.NewConn(conn, s.ioTimeout)
	wc.SetInstruments(s.wInst)
	if err := WrapTimeout("negotiate", s.ioTimeout, wc.AcceptClient(0)); err != nil {
		if errors.Is(err, ErrIOTimeout) {
			s.mIOTimeouts.Inc()
		}
		return err
	}
	codec, _ := compress.Lookup("raw")
	for {
		msg, err := wc.ReadMsg()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			err = WrapTimeout("read", s.ioTimeout, err)
			if errors.Is(err, ErrIOTimeout) {
				s.mIOTimeouts.Inc()
			}
			return err
		}
		werr := error(nil)
		switch msg[0] {
		case TagHello:
			werr = wc.WriteMsg(EncodeGeom(s.geom))
		case TagNotify:
			name, err := DecodeNotify(msg)
			var c compress.Codec
			if err == nil {
				c, err = compress.Lookup(name)
			}
			if err != nil {
				s.mErrors.Inc()
				s.stats.errors.Add(1)
				werr = wc.WriteMsg(EncodeError(err.Error()))
				break
			}
			codec = c
			s.mCodecSwitch.Inc()
			s.stats.notifies.Add(1)
		case TagRequest:
			req, err := DecodeRequest(msg)
			if err == nil {
				err = s.serveReal(wc, codec, req)
			}
			if err != nil {
				if errors.Is(err, ErrIOTimeout) {
					s.mIOTimeouts.Inc()
					bufpool.Put(msg)
					return err
				}
				s.mErrors.Inc()
				s.stats.errors.Add(1)
				werr = wc.WriteMsg(EncodeError(err.Error()))
			}
		case TagClose:
			bufpool.Put(msg)
			return nil
		default:
			s.mErrors.Inc()
			s.stats.errors.Add(1)
			werr = wc.WriteMsg(EncodeError("unknown message"))
		}
		bufpool.Put(msg)
		if werr != nil {
			werr = WrapTimeout("write", s.ioTimeout, werr)
			if errors.Is(werr, ErrIOTimeout) {
				s.mIOTimeouts.Inc()
			}
			return werr
		}
	}
}

func (s *RealServer) serveReal(wc *wire.Conn, codec compress.Codec, req Request) error {
	start := time.Now()
	s.mRequests.Inc()
	s.stats.requests.Add(1)
	if req.Image < 0 || req.Image >= len(s.seeds) {
		return fmt.Errorf("image %d out of range", req.Image)
	}
	pyr, err := s.store.Pyramid(s.geom.Side, s.geom.Levels, s.seeds[req.Image])
	if err != nil {
		return err
	}
	chunk, err := pyr.ExtractRegion(req.Level, req.X, req.Y, req.R, req.PrevR)
	if err != nil {
		return err
	}
	raw := chunk.AppendEncode(bufpool.Get(chunk.Size())[:0])
	chunk.Release()
	rawLen := len(raw)
	s.stats.rawBytes.Add(int64(rawLen))
	encStart := time.Now()
	enc := codec.Encode(raw)
	s.mCodec[codec.Name()].observe(time.Since(encStart).Seconds(), rawLen, len(enc))
	bufpool.Put(raw)
	defer bufpool.Put(enc)
	s.stats.compressedBytes.Add(int64(len(enc)))
	err = WriteSegmentsWire(wc, req.Image, req.Seq, rawLen, enc, s.segBytes, func(wireBytes int) {
		s.mSegments.Inc()
		s.mSentBytes.Add(float64(wireBytes))
	})
	if err != nil {
		return WrapTimeout("write", s.ioTimeout, err)
	}
	s.mReqSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// RealClient fetches images over a net.Conn using wall-clock timing.
type RealClient struct {
	conn      net.Conn
	wc        *wire.Conn
	ioTimeout time.Duration
	geom      Geometry
	params    Params
	codec     compress.Codec
	stats     []ImageStat
	epoch     time.Time

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mFetchSeconds *metrics.Histogram
	mRoundSeconds *metrics.Histogram
	mRawBytes     *metrics.Counter
	mWireBytes    *metrics.Counter
	mRounds       *metrics.Counter
	mImages       *metrics.Counter
	mIOTimeouts   *metrics.Counter
	mCodec        map[string]*codecInstruments
}

// NewRealClient wraps an established connection. Wrap conn in
// netem.NewShapedConn first to emulate a constrained link.
func NewRealClient(conn net.Conn, params Params) (*RealClient, error) {
	codec, err := compress.Lookup(params.Codec)
	if err != nil {
		return nil, err
	}
	return &RealClient{
		conn:   conn,
		wc:     wire.NewConn(conn, 0),
		params: params,
		codec:  codec,
		epoch:  time.Now(),
	}, nil
}

// SetIOTimeout bounds how long any frame read or write may go without
// progress before the call fails with a *TimeoutError instead of blocking
// forever on a dead peer (0, the default, waits forever).
func (c *RealClient) SetIOTimeout(d time.Duration) {
	c.ioTimeout = d
	c.wc.SetTimeout(d)
}

// EnableMetrics instruments the client. Metric families: avis_fetch_seconds
// (per-image download latency), avis_round_seconds (per-round response
// time), avis_raw_bytes_total, avis_wire_bytes_total, avis_rounds_total,
// avis_images_total, avis_io_timeouts_total, and — labeled per codec —
// avis_codec_decode_seconds, avis_codec_decode_in_bytes_total, and
// avis_codec_decode_out_bytes_total.
func (c *RealClient) EnableMetrics(reg *metrics.Registry) {
	c.mFetchSeconds = reg.Histogram("avis_fetch_seconds", "Per-image download latency.")
	c.mRoundSeconds = reg.Histogram("avis_round_seconds", "Per-round response time.")
	c.mRawBytes = reg.Counter("avis_raw_bytes_total", "Uncompressed payload bytes received.")
	c.mWireBytes = reg.Counter("avis_wire_bytes_total", "Compressed bytes on the wire.")
	c.mRounds = reg.Counter("avis_rounds_total", "Request/reply rounds completed.")
	c.mImages = reg.Counter("avis_images_total", "Images fully downloaded.")
	c.mIOTimeouts = reg.Counter("avis_io_timeouts_total", "Frame reads/writes that missed the I/O deadline.")
	c.mCodec = newCodecInstruments(reg, "decode")
	c.wc.SetInstruments(wire.NewInstruments(reg))
}

// readFrameT reads one frame into a pooled buffer (callers return it with
// bufpool.Put), converting a missed deadline into a typed *TimeoutError.
func (c *RealClient) readFrameT() ([]byte, error) {
	msg, err := c.wc.ReadMsg()
	err = WrapTimeout("read", c.ioTimeout, err)
	if errors.Is(err, ErrIOTimeout) {
		c.mIOTimeouts.Inc()
	}
	return msg, err
}

// writeFrameT writes one frame, converting a missed deadline into a typed
// *TimeoutError.
func (c *RealClient) writeFrameT(msg []byte) error {
	err := WrapTimeout("write", c.ioTimeout, c.wc.WriteMsg(msg))
	if errors.Is(err, ErrIOTimeout) {
		c.mIOTimeouts.Inc()
	}
	return err
}

// Connect runs the wire handshake, then requests the geometry and
// announces the codec.
func (c *RealClient) Connect() error {
	if err := WrapTimeout("negotiate", c.ioTimeout, c.wc.StartClient(0)); err != nil {
		if errors.Is(err, ErrIOTimeout) {
			c.mIOTimeouts.Inc()
		}
		return err
	}
	if err := c.writeFrameT(EncodeHello()); err != nil {
		return err
	}
	msg, err := c.readFrameT()
	if err != nil {
		return err
	}
	geom, err := DecodeGeom(msg)
	bufpool.Put(msg)
	if err != nil {
		return err
	}
	c.geom = geom
	return c.SetCodec(c.params.Codec)
}

// Geometry returns the server's announced geometry.
func (c *RealClient) Geometry() Geometry { return c.geom }

// SetCodec switches the compression method (the notify_server action).
func (c *RealClient) SetCodec(name string) error {
	codec, err := compress.Lookup(name)
	if err != nil {
		return err
	}
	if err := c.writeFrameT(EncodeNotify(name)); err != nil {
		return err
	}
	c.codec = codec
	c.params.Codec = name
	return nil
}

// SetParams updates dR and level for subsequent fetches.
func (c *RealClient) SetParams(p Params) error {
	if p.Codec != c.params.Codec {
		if err := c.SetCodec(p.Codec); err != nil {
			return err
		}
	}
	c.params.DR = p.DR
	c.params.Level = p.Level
	return nil
}

// Stats returns per-image statistics.
func (c *RealClient) Stats() []ImageStat { return c.stats }

// Close ends the session.
func (c *RealClient) Close() error {
	_ = c.writeFrameT(EncodeClose())
	return c.conn.Close()
}

// PlanRounds enumerates the request sequence of one progressive image
// fetch under geometry g and params p — Figure 2's loop body, precomputed.
// fromR resumes a partially delivered image: it is the level-resolution
// radius already on the client's canvas (0 starts fresh), which is how a
// failover client replays its fovea state onto a replacement server
// without re-fetching delivered increments. Rounds whose full-resolution
// increment would be empty are skipped, mirroring FetchImage.
func PlanRounds(g Geometry, p Params, img, fromR int) []Request {
	if g.Side == 0 {
		return nil
	}
	level := p.Level
	size := (g.Side >> g.Levels) << level
	scale := g.Side / size
	x, y := g.Side/2, g.Side/2
	var reqs []Request
	r, prevR := fromR, fromR
	for r < size {
		r += p.DR
		if r > size {
			r = size
		}
		fullR := r * scale / 2
		fullPrev := prevR * scale / 2
		prevR = r
		if fullR <= fullPrev {
			continue
		}
		reqs = append(reqs, Request{Image: img, X: x, Y: y, R: fullR, PrevR: fullPrev, Level: level})
	}
	return reqs
}

// FetchRoundRaw performs one request/reply round and returns the decoded
// (pre-compression) chunk payload instead of applying it to a canvas —
// the shape the edge proxy's origin leg needs, where the payload is
// cached and re-encoded per client rather than rendered. The returned
// buffer is drawn from the shared bufpool; callers that are done with it
// may return it with bufpool.Put. wireN is the round's on-the-wire byte
// count.
func (c *RealClient) FetchRoundRaw(req Request) (data []byte, wireN int, err error) {
	if c.geom.Side == 0 {
		return nil, 0, fmt.Errorf("avis: not connected")
	}
	t0 := time.Now()
	if err := c.writeFrameT(EncodeRequest(req)); err != nil {
		return nil, 0, err
	}
	compressed := bufpool.Get(1 << 12)[:0]
	for {
		msg, err := c.readFrameT()
		if err != nil {
			bufpool.Put(compressed)
			return nil, 0, err
		}
		if msg[0] == TagError {
			bufpool.Put(compressed)
			err := fmt.Errorf("avis: server error: %s", msg[1:])
			bufpool.Put(msg)
			return nil, 0, err
		}
		seg, err := DecodeSegment(msg)
		if err != nil {
			bufpool.Put(compressed)
			bufpool.Put(msg)
			return nil, 0, err
		}
		compressed = append(compressed, seg.Payload...)
		last := seg.Last
		bufpool.Put(msg)
		if last {
			break
		}
	}
	decStart := time.Now()
	data, err = c.codec.Decode(compressed)
	if err != nil {
		bufpool.Put(compressed)
		return nil, 0, err
	}
	c.mCodec[c.codec.Name()].observe(time.Since(decStart).Seconds(), len(compressed), len(data))
	wireN = len(compressed)
	c.mRawBytes.Add(float64(len(data)))
	c.mWireBytes.Add(float64(wireN))
	bufpool.Put(compressed)
	c.mRounds.Inc()
	c.mRoundSeconds.Observe(time.Since(t0).Seconds())
	return data, wireN, nil
}

// FetchRound performs one request/reply round: it sends req, gathers the
// reply segments, decodes them with the current codec, and, when canvas is
// non-nil, applies the chunk. It returns the round's pre-compression and
// on-the-wire byte counts. Round-level granularity is what cluster
// failover needs: a failed round applies nothing to the canvas (segments
// are buffered and decoded only once complete), so the same request can be
// replayed verbatim against a replacement server.
func (c *RealClient) FetchRound(req Request, canvas *wavelet.Canvas) (rawN, wireN int, err error) {
	data, wireN, err := c.FetchRoundRaw(req)
	if err != nil {
		return 0, 0, err
	}
	if canvas != nil {
		chunk, err := wavelet.DecodeChunk(data)
		if err == nil {
			err = canvas.Apply(chunk)
			chunk.Release()
		}
		if err != nil {
			bufpool.Put(data)
			return 0, 0, err
		}
	}
	rawN = len(data)
	bufpool.Put(data)
	return rawN, wireN, nil
}

// FetchImage downloads one image progressively, measuring wall-clock QoS.
func (c *RealClient) FetchImage(img int, canvas *wavelet.Canvas) (ImageStat, error) {
	if c.geom.Side == 0 {
		return ImageStat{}, fmt.Errorf("avis: not connected")
	}
	stat := ImageStat{
		Image: img, Level: c.params.Level, Codec: c.params.Codec, DR: c.params.DR,
		Start: time.Since(c.epoch),
	}
	start := time.Now()
	var respSum time.Duration
	for _, req := range PlanRounds(c.geom, c.params, img, 0) {
		t0 := time.Now()
		raw, wire, err := c.FetchRound(req, canvas)
		if err != nil {
			return stat, err
		}
		stat.RawBytes += int64(raw)
		stat.WireBytes += int64(wire)
		stat.Rounds++
		respSum += time.Since(t0)
	}
	stat.TransmitTime = time.Since(start)
	if stat.Rounds > 0 {
		stat.AvgResponse = respSum / time.Duration(stat.Rounds)
	}
	c.mFetchSeconds.Observe(stat.TransmitTime.Seconds())
	c.mImages.Inc()
	c.stats = append(c.stats, stat)
	return stat, nil
}

// Shape wraps a dialed connection with a bandwidth limit; exported here so
// the cmd tools need not import netem directly.
func Shape(conn net.Conn, bytesPerSec float64) net.Conn {
	if bytesPerSec <= 0 {
		return conn
	}
	return netem.NewShapedConn(conn, bytesPerSec)
}
