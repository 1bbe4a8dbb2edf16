package avis

import (
	"encoding/binary"
	"fmt"
)

// Wire protocol. Each link message carries exactly one protocol message;
// the first byte is the type tag. The codecs are exported because the edge
// tier (internal/edge) speaks the same messages on both of its legs.
const (
	TagHello   = 'H' // client → server: request geometry
	TagGeom    = 'G' // server → client: side, levels, image count
	TagNotify  = 'N' // client → server: compression type (Figure 2's notify)
	TagRequest = 'R' // client → server: foveal increment request
	TagSegment = 'S' // server → client: one reply segment
	TagClose   = 'C' // client → server: end of session
	TagError   = 'E' // server → client: request failed
)

// Geometry describes the served image set.
type Geometry struct {
	Side      int
	Levels    int
	NumImages int
}

// Request asks for the coefficients refining the square of radius R
// centred at (X, Y) at resolution Level, excluding the already-sent
// radius PrevR (Figure 2's send_request(x, y, r, l)). Seq identifies the
// round attempt: replies carry it back so a client that timed out and
// retransmitted can discard stale segments from the aborted attempt.
type Request struct {
	Image          int
	Seq            int
	X, Y, R, PrevR int
	Level          int
}

// Segment is one pipelined slice of a reply. Raw is the number of
// pre-compression bytes this slice accounts for (the client charges its
// decode and display cost from it); Last marks the end of the round; Seq
// echoes the request's attempt number.
type Segment struct {
	Image   int
	Seq     int
	Raw     int
	Last    bool
	Payload []byte
}

// EncodeHello renders the client handshake request.
func EncodeHello() []byte { return []byte{TagHello} }

// EncodeGeom renders a server geometry announcement.
func EncodeGeom(g Geometry) []byte {
	out := make([]byte, 13)
	out[0] = TagGeom
	binary.LittleEndian.PutUint32(out[1:], uint32(g.Side))
	binary.LittleEndian.PutUint32(out[5:], uint32(g.Levels))
	binary.LittleEndian.PutUint32(out[9:], uint32(g.NumImages))
	return out
}

// DecodeGeom parses a geometry announcement.
func DecodeGeom(b []byte) (Geometry, error) {
	if len(b) != 13 || b[0] != TagGeom {
		return Geometry{}, fmt.Errorf("avis: malformed geometry message")
	}
	return Geometry{
		Side:      int(binary.LittleEndian.Uint32(b[1:])),
		Levels:    int(binary.LittleEndian.Uint32(b[5:])),
		NumImages: int(binary.LittleEndian.Uint32(b[9:])),
	}, nil
}

// EncodeNotify renders a codec-change announcement.
func EncodeNotify(codec string) []byte {
	out := make([]byte, 2+len(codec))
	out[0] = TagNotify
	out[1] = byte(len(codec))
	copy(out[2:], codec)
	return out
}

// DecodeNotify parses a codec-change announcement.
func DecodeNotify(b []byte) (string, error) {
	if len(b) < 2 || b[0] != TagNotify || len(b) != 2+int(b[1]) {
		return "", fmt.Errorf("avis: malformed notify message")
	}
	return string(b[2:]), nil
}

// EncodeRequest renders a foveal increment request.
func EncodeRequest(r Request) []byte {
	out := make([]byte, 26)
	out[0] = TagRequest
	binary.LittleEndian.PutUint32(out[1:], uint32(r.Image))
	binary.LittleEndian.PutUint32(out[5:], uint32(r.X))
	binary.LittleEndian.PutUint32(out[9:], uint32(r.Y))
	binary.LittleEndian.PutUint32(out[13:], uint32(r.R))
	binary.LittleEndian.PutUint32(out[17:], uint32(r.PrevR))
	binary.LittleEndian.PutUint32(out[21:], uint32(r.Seq))
	out[25] = byte(r.Level)
	return out
}

// DecodeRequest parses a foveal increment request.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) != 26 || b[0] != TagRequest {
		return Request{}, fmt.Errorf("avis: malformed request message")
	}
	return Request{
		Image: int(binary.LittleEndian.Uint32(b[1:])),
		X:     int(binary.LittleEndian.Uint32(b[5:])),
		Y:     int(binary.LittleEndian.Uint32(b[9:])),
		R:     int(binary.LittleEndian.Uint32(b[13:])),
		PrevR: int(binary.LittleEndian.Uint32(b[17:])),
		Seq:   int(binary.LittleEndian.Uint32(b[21:])),
		Level: int(b[25]),
	}, nil
}

// segmentHeadLen is the fixed size of a segment message before its
// payload: tag(1) + image(4) + raw(4) + seq(4) + last(1).
const segmentHeadLen = 14

// appendSegmentHead renders a segment message's header (everything but
// the payload) into dst — the scatter-gather half of EncodeSegment, for
// framing a segment around its payload without gluing them together.
func appendSegmentHead(dst []byte, s Segment) []byte {
	var out [segmentHeadLen]byte
	out[0] = TagSegment
	binary.LittleEndian.PutUint32(out[1:], uint32(s.Image))
	binary.LittleEndian.PutUint32(out[5:], uint32(s.Raw))
	binary.LittleEndian.PutUint32(out[9:], uint32(s.Seq))
	if s.Last {
		out[13] = 1
	}
	return append(dst, out[:]...)
}

// EncodeSegment renders one reply segment.
func EncodeSegment(s Segment) []byte {
	out := appendSegmentHead(make([]byte, 0, segmentHeadLen+len(s.Payload)), s)
	return append(out, s.Payload...)
}

// DecodeSegment parses one reply segment; its Payload aliases b.
func DecodeSegment(b []byte) (Segment, error) {
	if len(b) < 14 || b[0] != TagSegment {
		return Segment{}, fmt.Errorf("avis: malformed segment message")
	}
	return Segment{
		Image:   int(binary.LittleEndian.Uint32(b[1:])),
		Raw:     int(binary.LittleEndian.Uint32(b[5:])),
		Seq:     int(binary.LittleEndian.Uint32(b[9:])),
		Last:    b[13] == 1,
		Payload: b[14:],
	}, nil
}

// EncodeError renders a server-side failure notice.
func EncodeError(msg string) []byte {
	return append([]byte{TagError}, msg...)
}

// EncodeClose renders the end-of-session notice.
func EncodeClose() []byte { return []byte{TagClose} }
