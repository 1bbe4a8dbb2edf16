package edge

import (
	"io"
	"net"
	"testing"
	"time"
)

// TestServersCloseNonNegotiatingPeers: the origin server, the edge proxy
// and the coordinator each run the wire handshake before their message
// loop, so a peer that opens with a Hello in the old length-prefixed
// framing, without the handshake record, gets no reply and a closed
// connection.
func TestServersCloseNonNegotiatingPeers(t *testing.T) {
	_, originLn := startOrigin(t)
	_, edgeLn := startEdge(t, originLn.Addr().String(), nil, nil)
	coordAddr := startCoord(t)
	v1Hello := []byte{1, 0, 0, 0, 'H'}
	for _, tc := range []struct {
		name string
		addr string
	}{
		{"origin", originLn.Addr().String()},
		{"edge", edgeLn.Addr().String()},
		{"coordinator", coordAddr.String()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(v1Hello); err != nil {
				t.Fatal(err)
			}
			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			// The server closes with the Hello's tag byte possibly unread,
			// so the close may arrive as a reset rather than EOF; only a
			// timeout means the connection stayed open.
			reply, err := io.ReadAll(conn)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("connection not closed")
			}
			if len(reply) != 0 {
				t.Fatalf("server answered a non-negotiating peer with %x", reply)
			}
		})
	}
}
