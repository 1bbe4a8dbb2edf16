// Package wire is the frame protocol under every avis connection — the
// data plane (internal/avis, internal/edge) and the cluster control plane
// (internal/cluster) both speak it.
//
// A connection opens with a handshake record in each direction: a
// little-endian uint32 length (always 10) followed by the negotiation
// message — tag 'V', a magic number, the highest version the sender
// speaks, and a capability bitmap. The client sends its record first and
// the server answers with its own; both then speak version 2 framing. A
// peer that opens with anything else, or announces a version below 2, is
// refused with an error and the connection closes.
//
// A version 2 frame carries the message tag (and a reserved flags byte)
// in a fixed 6-byte header — length, type, flags — so a frame is read
// with exactly two ReadFull calls into a pooled buffer and written as one
// vectored write (header and payload gathered into a single writev; a
// multi-frame reply batch is also a single writev).
//
// The capability bitmap is carried in the handshake and ANDed into
// Conn.Caps, but no encoding depends on it: the control plane always sends
// the schema-coded bodies of schema.go, the data plane its fixed binary
// messages.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is a wire-protocol framing version.
type Version uint8

// V2 is the only framing this build speaks: a 6-byte length/type/flags
// header before each payload.
const V2 Version = 2

// Caps is the capability bitmap carried in the handshake. The effective
// capability set of a connection is the AND of what both ends advertised.
type Caps uint32

const (
	// CapSchemaCtrl is advertised by both ends of a control-plane
	// connection. Control bodies are always schema-coded; the bit is kept
	// so the handshake bytes stay as they are.
	CapSchemaCtrl Caps = 1 << iota
)

// TagNegotiate is the message tag of the handshake record. It is a
// printable byte outside every application tag map.
const TagNegotiate = 'V'

// Magic guards the negotiation payload against a stray frame that merely
// starts with 'V' ("AVW2" little-endian).
const Magic uint32 = 0x32575641

// negotiateLen is the exact negotiation message length:
// tag(1) + magic(4) + version(1) + caps(4).
const negotiateLen = 10

// FrameLimit bounds a single protocol frame (a frame carries at most one
// reply segment plus headers). Writers enforce it on send (see
// FrameSizeError); readers enforce it before allocating.
const FrameLimit = 1 << 22

// ErrFrameTooLarge is the sentinel matched by errors.Is for frames
// rejected on the send side; the concrete error is a *FrameSizeError.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// FrameSizeError reports a frame whose payload exceeds FrameLimit. It is
// returned on the send side before any byte is written, so an oversize
// message never half-escapes onto the wire (where every reader would
// reject it) and a >4 GiB payload is never silently truncated by the
// uint32 length field.
type FrameSizeError struct {
	N     int // offending payload size
	Limit int // the enforced bound (FrameLimit)
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds the %d-byte limit", e.N, e.Limit)
}

// Is matches ErrFrameTooLarge.
func (e *FrameSizeError) Is(target error) bool { return target == ErrFrameTooLarge }

// isNegotiate reports whether msg is a well-formed negotiation message.
func isNegotiate(msg []byte) bool {
	return len(msg) == negotiateLen && msg[0] == TagNegotiate &&
		binary.LittleEndian.Uint32(msg[1:]) == Magic
}

// appendNegotiate renders a negotiation message into buf.
func appendNegotiate(buf []byte, ver Version, caps Caps) []byte {
	var b [negotiateLen]byte
	b[0] = TagNegotiate
	binary.LittleEndian.PutUint32(b[1:], Magic)
	b[5] = byte(ver)
	binary.LittleEndian.PutUint32(b[6:], uint32(caps))
	return append(buf, b[:]...)
}

// parseNegotiate decodes a negotiation message. Versions above V2 are
// legal (the peer is newer and both ends run V2); versions below V2 are
// not.
func parseNegotiate(msg []byte) (Version, Caps, error) {
	if !isNegotiate(msg) {
		return 0, 0, fmt.Errorf("wire: malformed negotiation message (%d bytes)", len(msg))
	}
	ver := Version(msg[5])
	if ver < V2 {
		return 0, 0, fmt.Errorf("wire: negotiation announces version %d", ver)
	}
	return ver, Caps(binary.LittleEndian.Uint32(msg[6:])), nil
}
