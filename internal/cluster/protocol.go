package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"tunable/internal/avis"
	"tunable/internal/bufpool"
	"tunable/internal/metrics"
	"tunable/internal/perfstore"
	"tunable/internal/wire"
)

// Control-plane wire protocol: each message is one wire frame whose first
// byte is a type tag and whose remainder is a schema-coded body (see
// schema.go) — or, for the delta batch, the packed binary of delta.go.
// The framing and timeout discipline are shared with the data plane (a
// wedged coordinator surfaces as avis.ErrIOTimeout).
const (
	ctagRegister    = 'g' // agent → coord: NodeInfo
	ctagDelta       = 'D' // agent → coord: binary delta batch (see delta.go)
	ctagDeregister  = 'd' // agent → coord: node ID (clean leave)
	ctagResolve     = 'v' // client → coord: ResolveRequest
	ctagEndSession  = 'e' // client → coord: session ID
	ctagNodes       = 'n' // anyone → coord: registry listing
	ctagPerfIngest  = 'p' // agent/server → coord: telemetry samples
	ctagPerfProfile = 'q' // anyone → coord: config key (refined profile fetch)
	ctagAck         = 'a' // coord → caller: ackMsg
)

// ResolveRequest asks the coordinator to place (or re-place) a session.
type ResolveRequest struct {
	SID     string   `json:"sid"`
	Exclude []string `json:"exclude,omitempty"` // nodes the client saw fail
	// Per-session resource demand for admission control; CPU ≤ 0 takes
	// DefaultSessionShare, MemBytes 0 reserves no explicit memory.
	CPU      float64 `json:"cpu,omitempty"`
	MemBytes int64   `json:"mem,omitempty"`
	// Sig pins the session to nodes serving this image store ("" = any).
	Sig string `json:"sig,omitempty"`
	// Coarse marks a session that mostly fetches coarse pyramid levels —
	// the cache-friendly traffic class. Edge nodes become eligible and are
	// preferred; without it only origin servers are considered.
	Coarse bool `json:"coarse,omitempty"`
}

// ResolveGrant is the coordinator's placement answer.
type ResolveGrant struct {
	NodeID   string `json:"node"`
	Addr     string `json:"addr"`
	Sig      string `json:"sig"`
	Failover bool   `json:"failover"` // true when this re-placed an existing session
}

// ackMsg is the single coordinator reply shape; fields beyond OK/Err are
// populated per request type.
type ackMsg struct {
	OK    bool
	Err   string
	Grant ResolveGrant
	Nodes []NodeStatus
	// Unknown echoes the delta-batch entries the coordinator refused
	// (unknown or dead nodes); the agent re-registers them.
	Unknown []string
	// Accepted is how many samples of a perf-ingest batch parsed and were
	// queued (the outlier filter runs later, at fold time).
	Accepted int
	// Profile is the refined overlay answering a perf-profile fetch.
	Profile *perfstore.Profile
}

// ctrlConn is one request/reply control-plane connection. Calls are
// serialized; both the agent and the resolver keep one alive and redial
// lazily on failure.
type ctrlConn struct {
	conn net.Conn
	wc   *wire.Conn
}

// newCtrlConn wraps a dialed connection and runs the wire handshake.
func newCtrlConn(conn net.Conn, timeout time.Duration) (*ctrlConn, error) {
	cc := &ctrlConn{conn: conn, wc: wire.NewConn(conn, timeout)}
	if err := cc.wc.StartClient(wire.CapSchemaCtrl); err != nil {
		_ = conn.Close()
		return nil, avis.WrapTimeout("negotiate", timeout, err)
	}
	return cc, nil
}

// call sends one request frame and decodes the coordinator's ack. An ack
// with OK=false is returned as an error.
func (c *ctrlConn) call(frame []byte, timeout time.Duration) (ackMsg, error) {
	if err := c.wc.WriteMsg(frame); err != nil {
		return ackMsg{}, avis.WrapTimeout("write", timeout, err)
	}
	msg, err := c.wc.ReadMsg()
	if err != nil {
		return ackMsg{}, avis.WrapTimeout("read", timeout, err)
	}
	defer bufpool.Put(msg)
	if len(msg) < 1 || msg[0] != ctagAck {
		return ackMsg{}, fmt.Errorf("cluster: unexpected reply frame")
	}
	ack, err := decodeAckV2(msg[1:])
	if err != nil {
		return ackMsg{}, err
	}
	if !ack.OK {
		return ack, fmt.Errorf("cluster: coordinator refused: %s", ack.Err)
	}
	return ack, nil
}

func (c *ctrlConn) close() {
	if c != nil {
		_ = c.conn.Close()
	}
}

// DialFunc dials the coordinator's control port; injectable so the fault
// layer (or a test) can interpose on every control-plane connection.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// maxIdleCtrl bounds how many idle control connections a client keeps
// pooled between calls.
const maxIdleCtrl = 8

// client is the shared retry loop under Agent and Resolver: a bounded
// pool of persistent connections, re-established with jittered
// exponential backoff under a retry budget when calls fail in transport.
// Application-level refusals (the coordinator answered, but said no) are
// never retried — a replacement attempt would be refused identically.
//
// mu guards only the pool and the policy fields, never a network round
// trip: concurrent callers check out separate connections (dialing fresh
// ones past the idle pool) and run their calls in parallel, so one slow
// control call no longer serializes every other caller of the same stub.
type client struct {
	addr    string
	timeout time.Duration

	mu       sync.Mutex
	idle     []*ctrlConn
	closed   bool
	dial     DialFunc
	attempts int // per-call cap, including the first try
	backoff  Backoff
	budget   *RetryBudget
	mRetries *metrics.Counter
}

func newClient(addr string, timeout time.Duration) *client {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &client{
		addr:     addr,
		timeout:  timeout,
		attempts: 2, // one transparent retry by default, as before
		backoff:  DefaultBackoff(),
	}
}

// setRetryPolicy reconfigures the per-call retry loop. attempts includes
// the first try; values below 1 are clamped to 1 (no retries).
func (c *client) setRetryPolicy(attempts int, b Backoff, budget *RetryBudget) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if attempts < 1 {
		attempts = 1
	}
	c.attempts = attempts
	c.backoff = b
	c.budget = budget
}

func (c *client) setDialer(dial DialFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dial = dial
}

// acquire checks a connection out of the idle pool, dialing a fresh one
// when the pool is empty. The dial runs outside mu.
func (c *client) acquire(dial DialFunc) (*ctrlConn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	if dial == nil {
		dial = net.DialTimeout
	}
	conn, err := dial("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial coordinator %s: %w", c.addr, err)
	}
	return newCtrlConn(conn, c.timeout)
}

// release returns a healthy connection to the pool (or closes it when the
// pool is full or the client is closed).
func (c *client) release(cc *ctrlConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < maxIdleCtrl {
		c.idle = append(c.idle, cc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cc.close()
}

// request renders one control frame with enc into a pooled buffer and
// issues it with call.
func (c *client) request(enc func(buf []byte) ([]byte, error)) (ackMsg, error) {
	frame, err := enc(bufpool.Get(256)[:0])
	if err != nil {
		return ackMsg{}, err
	}
	defer bufpool.Put(frame)
	return c.call(frame)
}

// call issues one request frame, retrying transport failures (broken
// pooled connections, failed dials, timed-out frames) under the retry
// policy. Each attempt already carries its own deadline (the dial timeout
// plus the per-frame progress deadline), so the whole call is bounded by
// attempts·(timeout+backoff).
func (c *client) call(frame []byte) (ackMsg, error) {
	c.mu.Lock()
	attempts, backoff, budget := c.attempts, c.backoff, c.budget
	retries, dial := c.mRetries, c.dial
	c.mu.Unlock()
	var lastErr error
	for attempt := 0; ; attempt++ {
		cc, err := c.acquire(dial)
		if err == nil {
			var ack ackMsg
			ack, err = cc.call(frame, c.timeout)
			if err == nil {
				c.release(cc)
				return ack, nil
			}
			if ack.Err != "" {
				// The coordinator refused; the connection is fine.
				c.release(cc)
				return ack, err
			}
			cc.close()
		}
		lastErr = err
		if attempt+1 >= attempts {
			return ackMsg{}, lastErr
		}
		if !budget.Allow() {
			return ackMsg{}, lastErr
		}
		retries.Inc()
		time.Sleep(backoff.Delay(attempt))
	}
}

func (c *client) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, cc := range c.idle {
		cc.close()
	}
	c.idle = nil
}
