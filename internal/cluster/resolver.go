package cluster

import (
	"time"

	"tunable/internal/metrics"
	"tunable/internal/perfstore"
)

// Resolver is the client-side stub of the coordinator: it turns a session
// ID into a server address, reporting failed nodes back so re-resolution
// steers around them, and releases the session's reservation on Close.
// Transport failures on control calls are retried transparently with
// jittered backoff (see SetRetryPolicy); coordinator refusals are not.
type Resolver struct {
	cl *client
}

// NewResolver creates a resolver for the coordinator at addr. timeout
// bounds each control call (dial + frame progress); 0 picks 5s.
func NewResolver(addr string, timeout time.Duration) *Resolver {
	return &Resolver{cl: newClient(addr, timeout)}
}

// EnableMetrics instruments the resolver: cluster_ctrl_retries_total
// (role="resolver") counts transparently retried control calls.
func (r *Resolver) EnableMetrics(reg *metrics.Registry) {
	r.cl.mu.Lock()
	defer r.cl.mu.Unlock()
	r.cl.mRetries = reg.Counter("cluster_ctrl_retries_total",
		"Control-plane calls transparently retried after a transport failure.",
		metrics.L("role", "resolver"))
}

// SetRetryPolicy bounds the transparent retries under each control call.
func (r *Resolver) SetRetryPolicy(attempts int, b Backoff, budget *RetryBudget) {
	r.cl.setRetryPolicy(attempts, b, budget)
}

// SetDialer interposes on control-plane dials (fault injection).
func (r *Resolver) SetDialer(dial DialFunc) { r.cl.setDialer(dial) }

// Resolve asks the coordinator to place the session.
func (r *Resolver) Resolve(req ResolveRequest) (ResolveGrant, error) {
	ack, err := r.cl.request(func(buf []byte) ([]byte, error) { return encodeResolveV2(buf, req) })
	if err != nil {
		return ResolveGrant{}, err
	}
	return ack.Grant, nil
}

// EndSession releases the session's reservation on the coordinator.
func (r *Resolver) EndSession(sid string) error {
	_, err := r.cl.request(func(buf []byte) ([]byte, error) { return encodeSessionV2(buf, sid) })
	return err
}

// PublishSamples pushes telemetry samples into the coordinator's shared
// performance store, returning how many were accepted for ingest.
func (r *Resolver) PublishSamples(samples []perfstore.WireSample) (int, error) {
	ack, err := r.cl.request(func(buf []byte) ([]byte, error) { return encodePerfIngestV2(buf, samples) })
	if err != nil {
		return 0, err
	}
	return ack.Accepted, nil
}

// FetchProfile retrieves the refined overlay for a configuration key from
// the coordinator's shared performance store.
func (r *Resolver) FetchProfile(configKey string) (*perfstore.Profile, error) {
	ack, err := r.cl.request(func(buf []byte) ([]byte, error) { return encodePerfProfileV2(buf, configKey) })
	if err != nil {
		return nil, err
	}
	return ack.Profile, nil
}

// Nodes fetches the coordinator's registry view.
func (r *Resolver) Nodes() ([]NodeStatus, error) {
	ack, err := r.cl.request(encodeNodesV2)
	if err != nil {
		return nil, err
	}
	return ack.Nodes, nil
}

// Close releases the control connection.
func (r *Resolver) Close() { r.cl.close() }
