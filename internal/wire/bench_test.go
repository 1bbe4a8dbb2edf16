package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"tunable/internal/bufpool"
)

// The BenchmarkWire* suite is recorded as BENCH_wire.json
// (scripts/bench_wire.sh) and gated by scripts/bench_check.sh: frame
// write and read, and the schema codec against the JSON bodies it
// replaced on the control plane, on two representative messages (a
// small id+count body and the placement-time resolve).

// loopReader serves the same encoded frame forever, so read benchmarks
// measure decoding, not buffer refills.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

func (l *loopReader) Write(p []byte) (int, error) { return len(p), nil }

var benchMsg = append([]byte{'S'}, bytes.Repeat([]byte{0xA5}, 256)...)

func BenchmarkWireWriteFrameV2(b *testing.B) {
	c := NewStream(struct {
		io.Reader
		io.Writer
	}{nil, io.Discard})
	b.SetBytes(int64(len(benchMsg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteMsg(benchMsg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireReadFrameV2(b *testing.B) {
	var buf bytes.Buffer
	w := NewStream(&duplex{in: &bytes.Buffer{}, out: &buf})
	if err := w.WriteMsg(benchMsg); err != nil {
		b.Fatal(err)
	}
	c := NewStream(&loopReader{frame: buf.Bytes()})
	b.SetBytes(int64(len(benchMsg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := c.ReadMsg()
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(msg)
	}
}

// Test-local control bodies — an id+count message and a mirror of the
// resolve request — in both codecs, so the suite captures the
// JSON→schema delta without importing internal/cluster (which would
// cycle).

var benchHeartbeatSchema = NewSchema("heartbeat",
	Field{Name: "id", Tag: 1, Kind: String, Required: true},
	Field{Name: "active", Tag: 2, Kind: Uint},
)

type benchHeartbeatJSON struct {
	ID     string `json:"id"`
	Active int    `json:"active,omitempty"`
}

var benchResolveSchema = NewSchema("resolve",
	Field{Name: "sid", Tag: 1, Kind: String, Required: true},
	Field{Name: "exclude", Tag: 2, Kind: String}, // repeated: emitted once per entry
	Field{Name: "cpu", Tag: 3, Kind: F64},
	Field{Name: "mem", Tag: 4, Kind: Sint},
	Field{Name: "sig", Tag: 5, Kind: String},
	Field{Name: "coarse", Tag: 6, Kind: Bool},
)

type benchResolveJSON struct {
	SID     string   `json:"sid"`
	Exclude []string `json:"exclude,omitempty"`
	CPU     float64  `json:"cpu,omitempty"`
	Mem     int64    `json:"mem,omitempty"`
	Sig     string   `json:"sig,omitempty"`
	Coarse  bool     `json:"coarse,omitempty"`
}

func encodeBenchHeartbeat(e *Encoder, buf []byte) []byte {
	e.Init(benchHeartbeatSchema, buf)
	e.Str("id", "node-0042")
	e.Uint("active", 17)
	out, err := e.Finish()
	if err != nil {
		panic(err)
	}
	return out
}

func encodeBenchResolve(e *Encoder, buf []byte) []byte {
	e.Init(benchResolveSchema, buf)
	e.Str("sid", "session-123456")
	e.Str("exclude", "node-0007")
	e.Str("exclude", "node-0019")
	e.F64("cpu", 1.5)
	e.Sint("mem", 512<<20)
	e.Str("sig", "lzw/4+fovea")
	e.Bool("coarse", true)
	out, err := e.Finish()
	if err != nil {
		panic(err)
	}
	return out
}

func BenchmarkWireEncodeHeartbeatSchema(b *testing.B) {
	var e Encoder
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = encodeBenchHeartbeat(&e, buf[:0])
	}
	_ = buf
}

func BenchmarkWireEncodeHeartbeatJSON(b *testing.B) {
	m := benchHeartbeatJSON{ID: "node-0042", Active: 17}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeResolveSchema(b *testing.B) {
	var e Encoder
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = encodeBenchResolve(&e, buf[:0])
	}
	_ = buf
}

func BenchmarkWireEncodeResolveJSON(b *testing.B) {
	m := benchResolveJSON{
		SID:     "session-123456",
		Exclude: []string{"node-0007", "node-0019"},
		CPU:     1.5,
		Mem:     512 << 20,
		Sig:     "lzw/4+fovea",
		Coarse:  true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeHeartbeatSchema(b *testing.B) {
	var e Encoder
	body := encodeBenchHeartbeat(&e, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var d Decoder
		d.Init(benchHeartbeatSchema, body)
		var id string
		var active uint64
		for d.Next() {
			switch d.Field().Name {
			case "id":
				id = d.Str()
			case "active":
				active = d.Uint()
			}
		}
		if err := d.Err(); err != nil {
			b.Fatal(err)
		}
		if id == "" || active != 17 {
			b.Fatal("bad decode")
		}
	}
}

func BenchmarkWireDecodeHeartbeatJSON(b *testing.B) {
	body, err := json.Marshal(benchHeartbeatJSON{ID: "node-0042", Active: 17})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m benchHeartbeatJSON
		if err := json.Unmarshal(body, &m); err != nil {
			b.Fatal(err)
		}
		if m.ID == "" || m.Active != 17 {
			b.Fatal("bad decode")
		}
	}
}

// The schema decode of the resolve body scans with the zero-copy
// accessors (StrBytes), as a dispatch loop that only inspects fields
// would; the heartbeat variant above pays for materializing the string.
func BenchmarkWireDecodeResolveSchema(b *testing.B) {
	var e Encoder
	body := encodeBenchResolve(&e, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var d Decoder
		d.Init(benchResolveSchema, body)
		var fields, excl int
		for d.Next() {
			fields++
			switch f := d.Field(); f.Name {
			case "sid", "sig":
				d.StrBytes()
			case "exclude":
				d.StrBytes()
				excl++
			case "cpu":
				d.F64()
			case "mem":
				d.Sint()
			case "coarse":
				d.Bool()
			}
		}
		if err := d.Err(); err != nil {
			b.Fatal(err)
		}
		if fields != 7 || excl != 2 {
			b.Fatal("bad decode")
		}
	}
}

func BenchmarkWireDecodeResolveJSON(b *testing.B) {
	body, err := json.Marshal(benchResolveJSON{
		SID:     "session-123456",
		Exclude: []string{"node-0007", "node-0019"},
		CPU:     1.5,
		Mem:     512 << 20,
		Sig:     "lzw/4+fovea",
		Coarse:  true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m benchResolveJSON
		if err := json.Unmarshal(body, &m); err != nil {
			b.Fatal(err)
		}
		if m.SID == "" || len(m.Exclude) != 2 {
			b.Fatal("bad decode")
		}
	}
}
