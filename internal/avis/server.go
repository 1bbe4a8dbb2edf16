package avis

import (
	"fmt"
	"sync/atomic"

	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/netem"
	"tunable/internal/sandbox"
	"tunable/internal/vtime"
)

// DefaultSegmentBytes is the compressed-slice size of a pipelined reply:
// the server charges its compression cost, and the client its decode and
// display cost, per slice, so compression, transmission, and
// decompression of one round overlap as they do in the paper's streaming
// server.
const DefaultSegmentBytes = 8 << 10

// ServerStats is a point-in-time snapshot of the server-side counters.
type ServerStats struct {
	Requests        int64
	RawBytes        int64
	CompressedBytes int64
	Notifies        int64
	Errors          int64
}

// serverCounters is the live, concurrency-safe form of ServerStats. The
// sim server's sender runs as its own goroutine-backed vtime proc and
// shared servers can be observed (Stats) while serving, so the counters
// are atomics rather than bare int64s — same discipline as the metrics
// package's instruments.
type serverCounters struct {
	requests        atomic.Int64
	rawBytes        atomic.Int64
	compressedBytes atomic.Int64
	notifies        atomic.Int64
	errors          atomic.Int64
}

// snapshot materializes the exported stats view.
func (c *serverCounters) snapshot() ServerStats {
	return ServerStats{
		Requests:        c.requests.Load(),
		RawBytes:        c.rawBytes.Load(),
		CompressedBytes: c.compressedBytes.Load(),
		Notifies:        c.notifies.Load(),
		Errors:          c.errors.Load(),
	}
}

// Server is the server-side component: it holds images as wavelet
// pyramids and answers foveal increment requests, compressing replies with
// the codec the client last announced (Figure 2's
// notify_server_compression_type).
type Server struct {
	geom     Geometry
	seeds    []int64
	cost     CostModel
	store    *ImageStore
	segBytes int

	sb    *sandbox.Sandbox
	ep    *netem.Endpoint
	codec compress.Codec
	stats serverCounters
}

// ServerOption customizes a server.
type ServerOption func(*Server)

// WithServerCost overrides the cost model.
func WithServerCost(c CostModel) ServerOption { return func(s *Server) { s.cost = c } }

// WithStore overrides the pyramid cache.
func WithStore(st *ImageStore) ServerOption { return func(s *Server) { s.store = st } }

// WithSegmentBytes overrides the reply slice size.
func WithSegmentBytes(n int) ServerOption { return func(s *Server) { s.segBytes = n } }

// NewServer creates a server for a set of synthetic images (one per seed)
// of the given geometry, running inside sandbox sb and speaking over
// endpoint ep.
func NewServer(sb *sandbox.Sandbox, ep *netem.Endpoint, side, levels int, seeds []int64, opts ...ServerOption) (*Server, error) {
	if side <= 0 || levels <= 0 || len(seeds) == 0 {
		return nil, fmt.Errorf("avis: invalid server geometry")
	}
	s := &Server{
		geom:     Geometry{Side: side, Levels: levels, NumImages: len(seeds)},
		seeds:    seeds,
		cost:     DefaultCostModel(),
		store:    sharedStore,
		segBytes: DefaultSegmentBytes,
		sb:       sb,
		ep:       ep,
	}
	raw, _ := compress.Lookup("raw")
	s.codec = raw
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Stats returns a snapshot of the server counters. Safe to call while
// the server is running.
func (s *Server) Stats() ServerStats { return s.stats.snapshot() }

// Codec returns the currently announced compression method.
func (s *Server) Codec() string { return s.codec.Name() }

// Run services the connection until the client closes it. It spawns a
// dedicated sender process so compression of slice k+1 overlaps
// transmission of slice k.
func (s *Server) Run(p *vtime.Proc) error {
	sendQ := vtime.NewNamedChan[[]byte](p.Sim(), 4, "avis.server.sendq")
	senderDone := vtime.NewEvent(p.Sim(), "avis.server.sender.done")
	p.Spawn("avis-server-sender", func(sp *vtime.Proc) {
		for {
			msg, ok := sendQ.Recv(sp)
			if !ok {
				break
			}
			s.ep.Send(sp, msg)
		}
		senderDone.Set()
	})
	defer func() {
		sendQ.Close()
		senderDone.Wait(p)
	}()
	for {
		raw, ok := s.ep.Recv(p)
		if !ok {
			return nil
		}
		if len(raw) == 0 {
			continue
		}
		switch raw[0] {
		case TagHello:
			sendQ.Send(p, EncodeGeom(s.geom))
		case TagNotify:
			name, err := DecodeNotify(raw)
			if err != nil {
				s.fail(p, sendQ, err)
				continue
			}
			codec, err := compress.Lookup(name)
			if err != nil {
				s.fail(p, sendQ, err)
				continue
			}
			s.codec = codec
			s.stats.notifies.Add(1)
		case TagRequest:
			req, err := DecodeRequest(raw)
			if err != nil {
				s.fail(p, sendQ, err)
				continue
			}
			if err := s.serveRequest(p, sendQ, req); err != nil {
				s.fail(p, sendQ, err)
			}
		case TagClose:
			return nil
		default:
			s.fail(p, sendQ, fmt.Errorf("avis: unknown message tag %q", raw[0]))
		}
	}
}

func (s *Server) fail(p *vtime.Proc, sendQ *vtime.Chan[[]byte], err error) {
	s.stats.errors.Add(1)
	sendQ.Send(p, EncodeError(err.Error()))
}

// serveRequest extracts, compresses, and streams one foveal increment.
func (s *Server) serveRequest(p *vtime.Proc, sendQ *vtime.Chan[[]byte], req Request) error {
	s.stats.requests.Add(1)
	if req.Image < 0 || req.Image >= len(s.seeds) {
		return fmt.Errorf("avis: image %d out of range", req.Image)
	}
	if req.Level < 0 || req.Level > s.geom.Levels {
		return fmt.Errorf("avis: level %d out of range", req.Level)
	}
	pyr, err := s.store.Pyramid(s.geom.Side, s.geom.Levels, s.seeds[req.Image])
	if err != nil {
		return err
	}
	// Per-request processing overhead.
	s.sb.Compute(p, s.cost.RequestOverheadCycles)
	chunk, err := pyr.ExtractRegion(req.Level, req.X, req.Y, req.R, req.PrevR)
	if err != nil {
		return err
	}
	rawBytes := chunk.AppendEncode(bufpool.Get(chunk.Size())[:0])
	chunk.Release()
	rawLen := len(rawBytes)
	s.sb.Compute(p, s.cost.ExtractCyclesPerCoeff*float64(rawLen))
	enc := s.codec.Encode(rawBytes)
	s.stats.rawBytes.Add(int64(rawLen))
	s.stats.compressedBytes.Add(int64(len(enc)))
	bufpool.Put(rawBytes)
	// Stream the compressed bytes in slices, charging the compression cost
	// slice by slice so the sender can overlap transmission.
	encCost := s.cost.EncodeCyclesPerByte * s.codec.EncodeCost()
	total := len(enc)
	for off := 0; off < total || off == 0; off += s.segBytes {
		end := off + s.segBytes
		if end > total {
			end = total
		}
		rawShare := float64(rawLen)
		if total > 0 {
			rawShare = float64(rawLen) * float64(end-off) / float64(total)
		}
		s.sb.Compute(p, encCost*rawShare)
		seg := Segment{
			Image:   req.Image,
			Seq:     req.Seq,
			Raw:     int(rawShare + 0.5),
			Last:    end == total,
			Payload: enc[off:end],
		}
		sendQ.Send(p, EncodeSegment(seg))
		if end == total {
			break
		}
	}
	// EncodeSegment copies the payload, so the codec output can be recycled.
	bufpool.Put(enc)
	return nil
}
