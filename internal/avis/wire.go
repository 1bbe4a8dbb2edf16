package avis

import (
	"tunable/internal/bufpool"
	"tunable/internal/wire"
)

// Reply segmentation. The edge tier (internal/edge) terminates the same
// frame protocol on its client-facing side and re-speaks it on its
// origin-facing side, so the message codecs (protocol.go) and the reply
// segmentation discipline must be shared, not re-derived: a proxy that
// segments replies differently from the origin would still reconstruct
// identical images, but its wire traces would diverge from the server's
// and the golden-format tests could no longer pin both.

// WriteSegmentsWire slices one encoded reply into pipelined segment
// frames on c — the server side of a round. rawLen is the reply's
// pre-compression size; each segment is charged a proportional share of
// it so the client's decode/display cost model stays exact under any
// segmentation. An empty reply still produces one (empty, Last) segment
// so the round always terminates. onSeg, when non-nil, observes each
// segment's payload size (the telemetry hook). segBytes ≤ 0 takes
// DefaultSegmentBytes. Every segment header is rendered into one pooled
// arena and gathered with its payload slice by scatter-gather framing, so
// the whole reply — all segments, headers and payloads — goes out in a
// single vectored write with zero payload copies.
func WriteSegmentsWire(c *wire.Conn, image, seq, rawLen int, enc []byte, segBytes int, onSeg func(wireBytes int)) error {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	total := len(enc)
	nseg := (total + segBytes - 1) / segBytes
	if nseg == 0 {
		nseg = 1
	}
	// One arena for every header; capacity is reserved up front so the
	// slices handed to AppendFrame2 stay valid until the flush.
	heads := bufpool.Get(nseg * segmentHeadLen)[:0]
	defer bufpool.Put(heads)
	for off := 0; off < total || off == 0; off += segBytes {
		end := off + segBytes
		if end > total {
			end = total
		}
		rawShare := rawLen
		if total > 0 {
			rawShare = rawLen * (end - off) / total
		}
		hstart := len(heads)
		heads = appendSegmentHead(heads, Segment{Image: image, Seq: seq, Raw: rawShare, Last: end == total})
		if err := c.AppendFrame2(heads[hstart:], enc[off:end]); err != nil {
			return err
		}
		if onSeg != nil {
			onSeg(end - off)
		}
		if end == total {
			break
		}
	}
	return c.Flush()
}
