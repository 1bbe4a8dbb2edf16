package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/metrics"
)

// duplex is an in-memory bidirectional stream for single-goroutine tests.
type duplex struct {
	in  *bytes.Buffer
	out *bytes.Buffer
}

func (d *duplex) Read(p []byte) (int, error)  { return d.in.Read(p) }
func (d *duplex) Write(p []byte) (int, error) { return d.out.Write(p) }

// TestFrameRoundTripBothVersions keeps its name from when V1 framing was
// also spoken; V2 is now the only framing, so only its subtest remains.
func TestFrameRoundTripBothVersions(t *testing.T) {
	t.Run(fmt.Sprintf("v%d", V2), func(t *testing.T) {
		var buf bytes.Buffer
		w := NewStream(&duplex{in: &bytes.Buffer{}, out: &buf})
		msgs := [][]byte{
			{'H'},
			append([]byte{'S'}, bytes.Repeat([]byte{0xAB}, 300)...),
			{'N', 1, 2, 3},
		}
		for _, m := range msgs {
			if err := w.WriteMsg(m); err != nil {
				t.Fatalf("WriteMsg: %v", err)
			}
		}
		r := NewStream(&duplex{in: &buf, out: &bytes.Buffer{}})
		for i, want := range msgs {
			got, err := r.ReadMsg()
			if err != nil {
				t.Fatalf("ReadMsg %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("msg %d: got %x want %x", i, got, want)
			}
			bufpool.Put(got)
		}
	})
}

func TestV2FrameLayout(t *testing.T) {
	var buf bytes.Buffer
	w := NewStream(&duplex{in: &bytes.Buffer{}, out: &buf})
	if err := w.WriteMsg([]byte{'R', 9, 8, 7}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 6+3 {
		t.Fatalf("frame length %d, want 9", len(b))
	}
	if n := binary.LittleEndian.Uint32(b[:4]); n != 3 {
		t.Fatalf("header length %d, want 3 (excludes tag)", n)
	}
	if b[4] != 'R' {
		t.Fatalf("type byte %q, want 'R'", b[4])
	}
	if b[5] != 0 {
		t.Fatalf("flags byte %d, want 0", b[5])
	}
	if !bytes.Equal(b[6:], []byte{9, 8, 7}) {
		t.Fatalf("payload %x", b[6:])
	}
}

func TestAppendFrame2GathersOneMessage(t *testing.T) {
	var buf bytes.Buffer
	w := NewStream(&duplex{in: &bytes.Buffer{}, out: &buf})
	head := []byte{'S', 0, 1}
	payload := bytes.Repeat([]byte{7}, 50)
	if err := w.AppendFrame2(head, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFrame([]byte{'E', 42}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewStream(&duplex{in: &buf, out: &bytes.Buffer{}})
	m1, err := r.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1, append(append([]byte{}, head...), payload...)) {
		t.Fatalf("gathered frame mismatch (%d bytes)", len(m1))
	}
	m2, err := r.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m2, []byte{'E', 42}) {
		t.Fatalf("second frame %x", m2)
	}
}

func TestFrameSizeErrorOnSend(t *testing.T) {
	w := NewStream(&duplex{in: &bytes.Buffer{}, out: &bytes.Buffer{}})
	big := make([]byte, FrameLimit+2)
	big[0] = 'S'
	err := w.WriteMsg(big)
	if err == nil {
		t.Fatal("oversize frame accepted")
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("error %v does not match ErrFrameTooLarge", err)
	}
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("error %T is not *FrameSizeError", err)
	}
	if fse.N != FrameLimit+1 || fse.Limit != FrameLimit {
		t.Fatalf("FrameSizeError = %+v", fse)
	}
	// The tag byte rides in the header, so a message of the limit plus its
	// tag still fits.
	if err := w.WriteMsg(big[:FrameLimit+1]); err != nil {
		t.Fatalf("frame of limit+tag bytes rejected: %v", err)
	}
}

// handshake runs AcceptClient(offer) on srv while cli runs
// StartClient(want), returning both errors.
func handshake(cli, srv *Conn, want, offer Caps) (cliErr, srvErr error) {
	done := make(chan error, 1)
	go func() { done <- srv.AcceptClient(offer) }()
	cliErr = cli.StartClient(want)
	return cliErr, <-done
}

func TestNegotiateV2BothSides(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	cli := NewConn(cliConn, time.Second)
	srv := NewConn(srvConn, time.Second)
	if cerr, serr := handshake(cli, srv, CapSchemaCtrl, CapSchemaCtrl); cerr != nil || serr != nil {
		t.Fatalf("StartClient: %v, AcceptClient: %v", cerr, serr)
	}
	if cli.Caps() != CapSchemaCtrl || srv.Caps() != CapSchemaCtrl {
		t.Fatalf("caps cli=%x srv=%x", cli.Caps(), srv.Caps())
	}
	// Post-handshake traffic flows in v2 frames.
	done := make(chan error, 1)
	go func() { done <- cli.WriteMsg([]byte{'H', 1}) }()
	msg, err := srv.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, []byte{'H', 1}) {
		t.Fatalf("post-negotiation msg %x", msg)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestNegotiateCapsAreANDed(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	cli := NewConn(cliConn, time.Second)
	srv := NewConn(srvConn, time.Second)
	// The server offers nothing.
	if cerr, serr := handshake(cli, srv, CapSchemaCtrl, 0); cerr != nil || serr != nil {
		t.Fatalf("StartClient: %v, AcceptClient: %v", cerr, serr)
	}
	if cli.Caps() != 0 || srv.Caps() != 0 {
		t.Fatalf("caps cli=%x srv=%x, want 0", cli.Caps(), srv.Caps())
	}
}

// recordConn records every byte written through it.
type recordConn struct {
	net.Conn
	mu  sync.Mutex
	out bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordConn) written() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.out.Bytes()...)
}

// TestHandshakeGoldenBytes pins the exact handshake records both ends
// send: a 4-byte little-endian length of 10, then tag 'V', magic "AVW2",
// version 2 and the caps bitmap. The data plane advertises no caps, the
// control plane CapSchemaCtrl on both ends.
func TestHandshakeGoldenBytes(t *testing.T) {
	cases := []struct {
		name        string
		want, offer Caps
		probe       string
		reply       string
	}{
		{"data", 0, 0,
			"0a000000564156573202" + "00000000",
			"0a000000564156573202" + "00000000"},
		{"control", CapSchemaCtrl, CapSchemaCtrl,
			"0a000000564156573202" + "01000000",
			"0a000000564156573202" + "01000000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			ca, cb := &recordConn{Conn: a}, &recordConn{Conn: b}
			cli, srv := NewConn(ca, time.Second), NewConn(cb, time.Second)
			if cerr, serr := handshake(cli, srv, tc.want, tc.offer); cerr != nil || serr != nil {
				t.Fatalf("StartClient: %v, AcceptClient: %v", cerr, serr)
			}
			if got := hex.EncodeToString(ca.written()); got != tc.probe {
				t.Errorf("client probe %s, want %s", got, tc.probe)
			}
			if got := hex.EncodeToString(cb.written()); got != tc.reply {
				t.Errorf("server reply %s, want %s", got, tc.reply)
			}
		})
	}
}

// TestNegotiateRefusesNonNegotiatingPeer: a peer that answers the probe
// with an application frame instead of a handshake record — here an error
// message in the old length-prefixed framing — makes StartClient fail and
// counts outcome="error".
func TestNegotiateRefusesNonNegotiatingPeer(t *testing.T) {
	reg := metrics.New()
	inst := NewInstruments(reg)
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	cli := NewConn(cliConn, time.Second)
	cli.SetInstruments(inst)
	done := make(chan error, 1)
	go func() {
		probe := make([]byte, handshakeLen)
		if _, err := io.ReadFull(srvConn, probe); err != nil {
			done <- err
			return
		}
		reply := append([]byte{'E'}, "unknown message"...)
		_, err := srvConn.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(reply))), reply...))
		done <- err
	}()
	if err := cli.StartClient(CapSchemaCtrl); err == nil {
		t.Fatal("StartClient accepted a peer that did not negotiate")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v := inst.NegotiateErr.Value(); v != 1 {
		t.Fatalf(`wire_negotiations_total{outcome="error"} = %v, want 1`, v)
	}
	if v := inst.Negotiated.Value(); v != 0 {
		t.Fatalf(`wire_negotiations_total{outcome="v2"} = %v, want 0`, v)
	}
}

// TestAcceptRefusesBadOpenings: the server runs the handshake before any
// message, so a client that opens with an application frame (in either
// the old length-prefixed framing or the v2 header), a version below 2,
// or a corrupt record is refused and sent nothing.
func TestAcceptRefusesBadOpenings(t *testing.T) {
	v1Hello := []byte{1, 0, 0, 0, 'H'}
	v2Hello := []byte{0, 0, 0, 0, 'H', 0}
	rec := func(ver Version) []byte {
		return appendNegotiate(binary.LittleEndian.AppendUint32(nil, negotiateLen), ver, 0)
	}
	badMagic := rec(V2)
	badMagic[5] ^= 0xFF
	for _, tc := range []struct {
		name    string
		opening []byte
	}{
		{"v1 hello", v1Hello},
		{"v2 hello", v2Hello},
		{"version 1", rec(1)},
		{"bad magic", badMagic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			srv := NewStream(&duplex{in: bytes.NewBuffer(tc.opening), out: &out})
			if err := srv.AcceptClient(0); err == nil {
				t.Fatal("AcceptClient accepted the opening")
			}
			if out.Len() != 0 {
				t.Fatalf("server answered a refused opening with %x", out.Bytes())
			}
		})
	}
}

// TestConcurrentWritersNeverInterleave is the regression test for the
// header/body interleaving bug: many goroutines hammer one Conn while a
// reader checks that every frame arrives intact, its payload bytes
// consistent with exactly one writer.
func TestConcurrentWritersNeverInterleave(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	w := NewConn(cliConn, 0)
	r := NewConn(srvConn, 0)

	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			msg := make([]byte, 1+17+int(id)*13) // varied sizes
			msg[0] = 'S'
			for j := 1; j < len(msg); j++ {
				msg[j] = id
			}
			for n := 0; n < perWriter; n++ {
				if err := w.WriteMsg(msg); err != nil {
					t.Errorf("writer %d: %v", id, err)
					return
				}
			}
		}(byte(i))
	}
	go func() {
		wg.Wait()
		cliConn.Close()
	}()

	frames := 0
	for {
		msg, err := r.ReadMsg()
		if err != nil {
			break
		}
		if msg[0] != 'S' {
			t.Fatalf("frame %d: tag %q — interleaved write", frames, msg[0])
		}
		id := byte(0)
		if len(msg) > 1 {
			id = msg[1]
		}
		if want := 1 + 17 + int(id)*13; len(msg) != want {
			t.Fatalf("frame %d: writer %d frame is %d bytes, want %d — torn frame", frames, id, len(msg), want)
		}
		for j := 1; j < len(msg); j++ {
			if msg[j] != id {
				t.Fatalf("frame %d: byte %d is %d, want %d — interleaved payload", frames, j, msg[j], id)
			}
		}
		bufpool.Put(msg)
		frames++
	}
	if frames != writers*perWriter {
		t.Fatalf("read %d intact frames, want %d", frames, writers*perWriter)
	}
}

func TestReadMsgRejectsOversizeHeader(t *testing.T) {
	var hdr [6]byte
	binary.LittleEndian.PutUint32(hdr[:4], FrameLimit+1)
	r := NewStream(&duplex{in: bytes.NewBuffer(hdr[:]), out: &bytes.Buffer{}})
	if _, err := r.ReadMsg(); err == nil {
		t.Fatal("oversize header accepted")
	}
}

// failingDeadlineConn reports an error from deadline arming, as a
// half-closed TCP conn does; the Conn must surface it, not swallow it.
type failingDeadlineConn struct {
	net.Conn
	err error
}

func (c *failingDeadlineConn) SetReadDeadline(time.Time) error  { return c.err }
func (c *failingDeadlineConn) SetWriteDeadline(time.Time) error { return c.err }

func TestDeadlineArmingErrorsSurface(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	armErr := errors.New("use of closed network connection")
	c := NewConn(&failingDeadlineConn{Conn: a, err: armErr}, time.Second)
	if err := c.WriteMsg([]byte{'H'}); !errors.Is(err, armErr) {
		t.Fatalf("write: got %v, want arming error", err)
	}
	if _, err := c.ReadMsg(); !errors.Is(err, armErr) {
		t.Fatalf("read: got %v, want arming error", err)
	}
}

func TestInstrumentsCountFramesAndOutcomes(t *testing.T) {
	reg := metrics.New()
	inst := NewInstruments(reg)
	cliConn, srvConn := net.Pipe()
	cli := NewConn(cliConn, time.Second)
	srv := NewConn(srvConn, time.Second)
	cli.SetInstruments(inst)
	srv.SetInstruments(inst)
	if cerr, serr := handshake(cli, srv, 0, 0); cerr != nil || serr != nil {
		t.Fatalf("StartClient: %v, AcceptClient: %v", cerr, serr)
	}
	done := make(chan error, 1)
	go func() { done <- cli.WriteMsg([]byte{'H'}) }()
	msg, err := srv.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	bufpool.Put(msg)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v := inst.Negotiated.Value(); v != 2 { // both ends count
		t.Fatalf("negotiated = %v, want 2", v)
	}
	if v := inst.Frames.Value(); v != 2 { // one write + one read; handshakes are not frames
		t.Fatalf("frames = %v, want 2", v)
	}
}
