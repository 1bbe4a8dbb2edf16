package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/metrics"
)

func decodeAll(t *testing.T, frame []byte) []DeltaEntry {
	t.Helper()
	var got []DeltaEntry
	if err := forEachDelta(frame, func(id []byte, sessions int32) {
		got = append(got, DeltaEntry{ID: string(id), Sessions: sessions})
	}); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestDeltaRoundTrip(t *testing.T) {
	cases := [][]DeltaEntry{
		nil,
		{{ID: "n1", Sessions: 0}},
		{{ID: "n1", Sessions: 1}, {ID: "node-with-a-longer-name", Sessions: -1}},
		{{ID: "a", Sessions: 1 << 20}, {ID: "b", Sessions: -(1 << 20)}, {ID: "c", Sessions: -1}},
	}
	for i, entries := range cases {
		frame, err := EncodeDeltaBatch(entries)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got := decodeAll(t, frame)
		if len(got) != len(entries) {
			t.Fatalf("case %d: %d entries round-tripped to %d", i, len(entries), len(got))
		}
		for j := range entries {
			if got[j] != entries[j] {
				t.Fatalf("case %d entry %d: %+v != %+v", i, j, got[j], entries[j])
			}
		}
		bufpool.Put(frame)
	}
}

func TestDeltaRoundTripLargeBatch(t *testing.T) {
	entries := make([]DeltaEntry, 5000)
	for i := range entries {
		entries[i] = DeltaEntry{ID: fmt.Sprintf("node-%04d", i), Sessions: int32(i - 2500)}
	}
	frame, err := EncodeDeltaBatch(entries)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	defer bufpool.Put(frame)
	got := decodeAll(t, frame)
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

func TestDeltaEncodeRejects(t *testing.T) {
	if _, err := EncodeDeltaBatch([]DeltaEntry{{ID: "", Sessions: 1}}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := EncodeDeltaBatch([]DeltaEntry{{ID: strings.Repeat("x", 256), Sessions: 1}}); err == nil {
		t.Fatal("256-byte ID accepted")
	}
	huge := make([]DeltaEntry, maxDeltaEntries)
	for i := range huge {
		huge[i].ID = "n"
	}
	if _, err := EncodeDeltaBatch(huge); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestDeltaDecodeRejectsMalformed(t *testing.T) {
	frame, err := EncodeDeltaBatch([]DeltaEntry{{ID: "n1", Sessions: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer bufpool.Put(frame)
	nop := func([]byte, int32) {}
	if err := forEachDelta(nil, nop); err == nil {
		t.Fatal("nil frame accepted")
	}
	if err := forEachDelta([]byte{ctagRegister, 1, 0, 0}, nop); err == nil {
		t.Fatal("wrong tag accepted")
	}
	bad := append([]byte(nil), frame...)
	bad[1] = deltaVersion + 1
	if err := forEachDelta(bad, nop); err == nil {
		t.Fatal("future version accepted")
	}
	if err := forEachDelta(frame[:len(frame)-1], nop); err == nil {
		t.Fatal("truncated frame accepted")
	}
	trailing := append(append([]byte(nil), frame...), 0xff)
	if err := forEachDelta(trailing, nop); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestApplyDeltas drives the coordinator's delta path in-process: load
// accumulates as net deltas, refused IDs come back as unknown, and a
// suspect node is revived by a delta entry like a classic heartbeat.
func TestApplyDeltas(t *testing.T) {
	var now time.Duration
	c := NewCoordinator(Config{
		SuspectAfter: 100 * time.Millisecond,
		DeadAfter:    300 * time.Millisecond,
		Now:          func() time.Duration { return now },
		Shards:       4,
	})
	reg := metrics.New()
	c.EnableMetrics(reg)
	for i := 0; i < 3; i++ {
		info := NodeInfo{ID: fmt.Sprintf("n%d", i), Addr: "a", CPU: 1, Side: 8, Levels: 1, Seeds: []int64{1}}
		if err := c.Register(info); err != nil {
			t.Fatal(err)
		}
	}

	unknown := c.ApplyDeltas([]DeltaEntry{
		{ID: "n0", Sessions: 5},
		{ID: "n1", Sessions: 2},
		{ID: "ghost", Sessions: 1},
	})
	if len(unknown) != 1 || unknown[0] != "ghost" {
		t.Fatalf("unknown = %v", unknown)
	}
	unknown = c.ApplyDeltas([]DeltaEntry{
		{ID: "n0", Sessions: -2},
		{ID: "n1", Sessions: -7}, // over-decrement clamps at zero
	})
	if len(unknown) != 0 {
		t.Fatalf("unknown = %v", unknown)
	}
	loads := map[string]int{}
	for _, st := range c.Nodes() {
		loads[st.ID] = st.Load.ActiveSessions
	}
	if loads["n0"] != 3 || loads["n1"] != 0 || loads["n2"] != 0 {
		t.Fatalf("loads = %v", loads)
	}

	// A suspect node is revived by a delta entry.
	now = 150 * time.Millisecond
	c.Tick()
	if st := stateOf(t, c, "n0"); st != "suspect" {
		t.Fatalf("n0 state %q", st)
	}
	c.ApplyDeltas([]DeltaEntry{{ID: "n0", Sessions: 0}, {ID: "n1", Sessions: 0}, {ID: "n2", Sessions: 0}})
	if st := stateOf(t, c, "n0"); st != "alive" {
		t.Fatalf("n0 state %q after delta", st)
	}

	// A dead node refuses delta entries (the agent must re-register).
	now = 600 * time.Millisecond
	c.Tick()
	unknown = c.ApplyDeltas([]DeltaEntry{{ID: "n2", Sessions: 1}})
	if len(unknown) != 1 || unknown[0] != "n2" {
		t.Fatalf("dead node delta: unknown = %v", unknown)
	}
}

// TestDeltaFrameDispatch runs the wire path end to end: an encoded frame
// through dispatch, unknown IDs in the ack.
func TestDeltaFrameDispatch(t *testing.T) {
	c := NewCoordinator(Config{Shards: 2})
	if err := c.Register(NodeInfo{ID: "n0", Addr: "a", CPU: 1, Side: 8, Levels: 1, Seeds: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeDeltaBatch([]DeltaEntry{{ID: "n0", Sessions: 4}, {ID: "ghost", Sessions: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer bufpool.Put(frame)
	ack := c.dispatch(frame)
	if !ack.OK {
		t.Fatalf("dispatch refused: %s", ack.Err)
	}
	if len(ack.Unknown) != 1 || ack.Unknown[0] != "ghost" {
		t.Fatalf("ack.Unknown = %v", ack.Unknown)
	}
	if got := c.Nodes()[0].Load.ActiveSessions; got != 4 {
		t.Fatalf("load = %d", got)
	}
	if bad := c.dispatch([]byte{ctagDelta, 9, 9}); bad.OK || bad.Err == "" {
		t.Fatalf("malformed delta frame accepted: %+v", bad)
	}
}

func stateOf(t *testing.T, c *Coordinator, id string) string {
	t.Helper()
	for _, st := range c.Nodes() {
		if st.ID == id {
			return st.State
		}
	}
	t.Fatalf("node %s not listed", id)
	return ""
}
