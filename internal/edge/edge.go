package edge

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tunable/internal/avis"
	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/metrics"
	"tunable/internal/wire"
)

// DefaultOriginCodec compresses the origin leg. The edge decodes every
// origin reply back to raw chunk bytes before caching, so the origin-leg
// codec only trades origin bandwidth against edge CPU; lzw is the
// strongest codec the repertoire has.
const DefaultOriginCodec = "lzw"

// Defaults for Config zero values.
const (
	DefaultCacheEntries  = 4096
	DefaultCacheBytes    = 256 << 20
	DefaultTTL           = 5 * time.Minute
	DefaultOriginRetries = 3
	DefaultPrewarmQueue  = 64
)

// Config parameterizes one edge proxy.
type Config struct {
	// OriginAddr is the origin server's TCP address. OriginDial, when
	// non-nil, replaces the default dialer — the seam for fault injection
	// and link shaping in tests.
	OriginAddr string
	OriginDial func() (net.Conn, error)

	// OriginCodec compresses the origin leg (default DefaultOriginCodec).
	OriginCodec string

	// Sig is the origin's content signature — the same store signature
	// cluster sessions pin on. It prefixes every cache key, so an edge
	// restarted against a different image set can never serve stale bytes.
	Sig string

	// Cache bounds: entry count, summed payload bytes, and per-entry TTL.
	// Zero values take the Default* constants; a negative CacheEntries or
	// CacheBytes lifts that bound.
	CacheEntries int
	CacheBytes   int64
	TTL          time.Duration

	// CoarseMax is the largest pyramid level served from cache; finer
	// levels always stream from origin. Zero means geom.Levels-1 (cache
	// everything below full resolution); negative disables caching.
	CoarseMax int

	// SegBytes is the client-facing reply segment size (0 = the protocol
	// default). IOTimeout bounds frame-I/O progress on both legs.
	SegBytes  int
	IOTimeout time.Duration

	// Prewarm enables the fovea-trajectory prewarmer. PrewarmWindow is the
	// trajectory history length (0 = monitor.DefaultTrajectoryWindow);
	// TeleportDist is the fovea jump that resets extrapolation (0 = a
	// quarter of the image side); PrewarmQueue bounds the task backlog
	// (0 = DefaultPrewarmQueue).
	Prewarm       bool
	PrewarmWindow int
	TeleportDist  float64
	PrewarmQueue  int

	// OriginRetries is how many times a transport-failed origin round is
	// retried on a fresh connection before the client-facing connection is
	// dropped (0 = DefaultOriginRetries; negative = no retries).
	OriginRetries int
}

// flight is one in-progress origin fetch that concurrent cache misses for
// the same key coalesce onto.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// Proxy is one edge node: it terminates the avis protocol toward clients
// and serves coarse levels from its chunk cache, streaming misses and
// fine levels from the origin over a pooled connection leg.
type Proxy struct {
	cfg     Config
	geom    avis.Geometry
	cache   *chunkCache
	origins *originPool
	pw      *prewarmer

	flightMu sync.Mutex
	flights  map[string]*flight

	// client-facing connection accounting, mirroring RealServer
	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	listeners []net.Listener
	draining  bool
	wg        sync.WaitGroup
	active    atomic.Int64

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mConns         *metrics.Counter
	mRequests      *metrics.Counter
	mErrors        *metrics.Counter
	mServeCache    *metrics.Histogram
	mServeOrigin   *metrics.Histogram
	mOriginSeconds *metrics.Histogram
	mOriginRetries *metrics.Counter
	wInst          wire.Instruments
}

// New creates an edge proxy. Start must run before Serve.
func New(cfg Config) (*Proxy, error) {
	if cfg.OriginDial == nil {
		if cfg.OriginAddr == "" {
			return nil, fmt.Errorf("edge: neither OriginAddr nor OriginDial set")
		}
		addr := cfg.OriginAddr
		cfg.OriginDial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.OriginCodec == "" {
		cfg.OriginCodec = DefaultOriginCodec
	}
	if _, err := compress.Lookup(cfg.OriginCodec); err != nil {
		return nil, err
	}
	if cfg.Sig == "" {
		cfg.Sig = "unsigned"
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.OriginRetries == 0 {
		cfg.OriginRetries = DefaultOriginRetries
	}
	p := &Proxy{
		cfg:     cfg,
		cache:   newChunkCache(max0(cfg.CacheEntries), int64(max0(int(cfg.CacheBytes))), cfg.TTL),
		flights: make(map[string]*flight),
		conns:   make(map[net.Conn]struct{}),
	}
	p.origins = &originPool{
		dial:      cfg.OriginDial,
		codec:     cfg.OriginCodec,
		ioTimeout: cfg.IOTimeout,
	}
	if cfg.Prewarm {
		p.pw = newPrewarmer(p, cfg.PrewarmQueue)
	}
	return p, nil
}

// max0 maps negative (= unbounded) to 0, the lru package's "no bound".
func max0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// EnableMetrics instruments the proxy. Metric families: edge_cache_*
// (hits, misses, prewarm hits, evictions by reason, hit ratio, occupancy),
// edge_connections_total, edge_requests_total, edge_errors_total,
// edge_serve_seconds labeled source=cache|origin, edge_origin_fetch_seconds,
// edge_origin_retries_total, and the edge_prewarm_* family. Every label
// set is closed: source ∈ {cache, origin}, reason ∈ {capacity, expired}.
func (p *Proxy) EnableMetrics(reg *metrics.Registry) {
	p.cache.enableMetrics(reg)
	p.mConns = reg.Counter("edge_connections_total", "Client connections accepted by the edge.")
	p.mRequests = reg.Counter("edge_requests_total", "Foveal region requests served by the edge.")
	p.mErrors = reg.Counter("edge_errors_total", "Protocol or serve errors returned to edge clients.")
	p.mServeCache = reg.Histogram("edge_serve_seconds",
		"Wall-clock latency of serving one request, by payload source.", metrics.L("source", "cache"))
	p.mServeOrigin = reg.Histogram("edge_serve_seconds",
		"Wall-clock latency of serving one request, by payload source.", metrics.L("source", "origin"))
	p.mOriginSeconds = reg.Histogram("edge_origin_fetch_seconds",
		"Wall-clock latency of one origin round (send request, gather and decode reply).")
	p.mOriginRetries = reg.Counter("edge_origin_retries_total",
		"Origin rounds retried on a fresh connection after a transport failure.")
	if p.pw != nil {
		p.pw.enableMetrics(reg)
	}
	p.wInst = wire.NewInstruments(reg)
}

// Start dials the origin once to learn its geometry and spins up the
// prewarm worker. It must complete before Serve.
func (p *Proxy) Start() error {
	c, err := p.origins.get()
	if err != nil {
		return fmt.Errorf("edge: origin handshake: %w", err)
	}
	p.geom = c.Geometry()
	p.origins.put(c)
	if p.cfg.CoarseMax == 0 {
		p.cfg.CoarseMax = p.geom.Levels - 1
	}
	if p.cfg.TeleportDist == 0 {
		p.cfg.TeleportDist = float64(p.geom.Side) / 4
	}
	if p.pw != nil {
		p.pw.start()
	}
	return nil
}

// Geometry returns the origin's announced geometry (valid after Start).
func (p *Proxy) Geometry() avis.Geometry { return p.geom }

// Stats returns a snapshot of the cache counters.
func (p *Proxy) Stats() CacheStats { return p.cache.stats() }

// ActiveSessions reports the client connections currently being served;
// node agents feed it into cluster heartbeats as the load signal.
func (p *Proxy) ActiveSessions() int { return int(p.active.Load()) }

// Serve accepts client connections until the listener closes, handling
// each in its own goroutine. After Shutdown it returns net.ErrClosed.
func (p *Proxy) Serve(l net.Listener) error {
	p.connMu.Lock()
	if p.draining {
		p.connMu.Unlock()
		return net.ErrClosed
	}
	p.listeners = append(p.listeners, l)
	p.connMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		p.connMu.Lock()
		if p.draining {
			p.connMu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		p.conns[conn] = struct{}{}
		p.active.Add(1)
		p.wg.Add(1)
		p.connMu.Unlock()
		go func() {
			defer func() {
				conn.Close()
				p.connMu.Lock()
				delete(p.conns, conn)
				p.connMu.Unlock()
				p.active.Add(-1)
				p.wg.Done()
			}()
			_ = p.handle(conn)
		}()
	}
}

// Shutdown drains the proxy: stop accepting, wait up to timeout for
// in-flight sessions, force-close stragglers, then stop the prewarmer and
// close the origin leg. Returns the number of force-closed connections.
func (p *Proxy) Shutdown(timeout time.Duration) int {
	p.connMu.Lock()
	p.draining = true
	for _, l := range p.listeners {
		_ = l.Close()
	}
	p.listeners = nil
	p.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	forced := 0
	select {
	case <-done:
	case <-time.After(timeout):
		p.connMu.Lock()
		forced = len(p.conns)
		for conn := range p.conns {
			_ = conn.Close()
		}
		p.connMu.Unlock()
		<-done
	}
	if p.pw != nil {
		p.pw.stop()
	}
	p.origins.closeAll()
	return forced
}

// handle services one client connection, mirroring RealServer's loop.
// Origin transport failures (after retries) return without a TagError
// frame, dropping the connection so a cluster FailoverClient re-places
// the session — typically straight onto the origin.
func (p *Proxy) handle(conn net.Conn) error {
	p.mConns.Inc()
	wc := wire.NewConn(conn, p.cfg.IOTimeout)
	wc.SetInstruments(p.wInst)
	if err := wc.AcceptClient(0); err != nil {
		return avis.WrapTimeout("negotiate", p.cfg.IOTimeout, err)
	}
	codec, _ := compress.Lookup("raw")
	track := p.newTracker()
	for {
		msg, err := wc.ReadMsg()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return avis.WrapTimeout("read", p.cfg.IOTimeout, err)
		}
		werr := error(nil)
		switch msg[0] {
		case avis.TagHello:
			werr = wc.WriteMsg(avis.EncodeGeom(p.geom))
		case avis.TagNotify:
			name, err := avis.DecodeNotify(msg)
			var c compress.Codec
			if err == nil {
				c, err = compress.Lookup(name)
			}
			if err != nil {
				p.mErrors.Inc()
				werr = wc.WriteMsg(avis.EncodeError(err.Error()))
				break
			}
			codec = c
		case avis.TagRequest:
			req, err := avis.DecodeRequest(msg)
			if err == nil {
				err = p.serve(wc, codec, req, track)
			}
			if err != nil {
				if transportError(err) {
					// The origin leg is down (or this client's pipe broke):
					// nothing truthful can be sent, so drop the connection
					// and let client-side failover take over.
					bufpool.Put(msg)
					return err
				}
				p.mErrors.Inc()
				werr = wc.WriteMsg(avis.EncodeError(err.Error()))
			}
		case avis.TagClose:
			bufpool.Put(msg)
			return nil
		default:
			p.mErrors.Inc()
			werr = wc.WriteMsg(avis.EncodeError("unknown message"))
		}
		bufpool.Put(msg)
		if werr != nil {
			return avis.WrapTimeout("write", p.cfg.IOTimeout, werr)
		}
	}
}

// serve answers one region request: coarse levels consult the cache (and
// coalesce misses through single-flight), fine levels stream through. The
// payload is re-encoded with the client's codec, so the bytes a client
// receives are identical whether they crossed the cache or not.
func (p *Proxy) serve(wc *wire.Conn, codec compress.Codec, req avis.Request, track *foveaTracker) error {
	start := time.Now()
	p.mRequests.Inc()
	if req.Image < 0 || req.Image >= p.geom.NumImages {
		return fmt.Errorf("image %d out of range", req.Image)
	}
	coarse := p.cfg.CoarseMax >= 0 && req.Level <= p.cfg.CoarseMax
	var (
		data   []byte
		pooled bool // data is ours to return to the bufpool after encoding
		hit    bool
	)
	if coarse {
		key := cacheKey(p.cfg.Sig, req)
		if d, ok := p.cache.lookup(key); ok {
			data, hit = d, true
		} else {
			d, err := p.fetchShared(key, req, false)
			if err != nil {
				return err
			}
			data = d
		}
		track.observe(req)
	} else {
		d, err := p.fetchOrigin(req)
		if err != nil {
			return err
		}
		data, pooled = d, true
	}
	enc := codec.Encode(data)
	if pooled {
		bufpool.Put(data)
	}
	err := avis.WriteSegmentsWire(wc, req.Image, req.Seq, len(data), enc, p.cfg.SegBytes, nil)
	bufpool.Put(enc)
	if err != nil {
		return avis.WrapTimeout("write", p.cfg.IOTimeout, err)
	}
	if hit {
		p.mServeCache.Observe(time.Since(start).Seconds())
	} else {
		p.mServeOrigin.Observe(time.Since(start).Seconds())
	}
	return nil
}

// fetchShared coalesces concurrent origin fetches for one cache key: the
// first caller performs the round and inserts the payload; everyone else
// waits on its flight. The returned buffer is owned by the cache (never
// returned to the bufpool) — callers treat it as read-only.
func (p *Proxy) fetchShared(key string, req avis.Request, prewarmed bool) ([]byte, error) {
	p.flightMu.Lock()
	if f, ok := p.flights[key]; ok {
		p.flightMu.Unlock()
		<-f.done
		return f.data, f.err
	}
	f := &flight{done: make(chan struct{})}
	p.flights[key] = f
	p.flightMu.Unlock()

	data, err := p.fetchOrigin(req)
	if err == nil {
		p.cache.insert(key, data, prewarmed)
	}
	f.data, f.err = data, err
	p.flightMu.Lock()
	delete(p.flights, key)
	p.flightMu.Unlock()
	close(f.done)
	return data, err
}

// fetchOrigin performs one origin round, retrying transport failures on a
// fresh connection. Application-level refusals are returned immediately —
// the origin would refuse a replay identically.
func (p *Proxy) fetchOrigin(req avis.Request) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= p.cfg.OriginRetries; attempt++ {
		if attempt > 0 {
			p.mOriginRetries.Inc()
		}
		c, err := p.origins.get()
		if err != nil {
			lastErr = err
			continue
		}
		t0 := time.Now()
		data, _, err := c.FetchRoundRaw(req)
		if err == nil {
			p.mOriginSeconds.Observe(time.Since(t0).Seconds())
			p.origins.put(c)
			return data, nil
		}
		lastErr = err
		if !transportError(err) {
			p.origins.put(c)
			return nil, err
		}
		p.origins.discard(c)
	}
	return nil, lastErr
}

// transportError reports whether err means the peer is dead, wedged, or
// unreachable — the retry/failover class — as opposed to an
// application-level refusal. Mirrors cluster's connFailure.
func transportError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, avis.ErrIOTimeout) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// originPool recycles connected origin-leg clients across rounds: an idle
// client is reused, a missing one is dialed and handshaken on demand, and
// a client whose round failed at the transport level is discarded.
type originPool struct {
	dial      func() (net.Conn, error)
	codec     string
	ioTimeout time.Duration

	mu     sync.Mutex
	idle   []*avis.RealClient
	closed bool
}

func (op *originPool) get() (*avis.RealClient, error) {
	op.mu.Lock()
	if n := len(op.idle); n > 0 {
		c := op.idle[n-1]
		op.idle = op.idle[:n-1]
		op.mu.Unlock()
		return c, nil
	}
	op.mu.Unlock()
	conn, err := op.dial()
	if err != nil {
		return nil, err
	}
	c, err := avis.NewRealClient(conn, avis.Params{DR: 1, Codec: op.codec})
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.SetIOTimeout(op.ioTimeout)
	if err := c.Connect(); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

func (op *originPool) put(c *avis.RealClient) {
	op.mu.Lock()
	if op.closed {
		op.mu.Unlock()
		_ = c.Close()
		return
	}
	op.idle = append(op.idle, c)
	op.mu.Unlock()
}

func (op *originPool) discard(c *avis.RealClient) { _ = c.Close() }

func (op *originPool) closeAll() {
	op.mu.Lock()
	idle := op.idle
	op.idle, op.closed = nil, true
	op.mu.Unlock()
	for _, c := range idle {
		_ = c.Close()
	}
}
