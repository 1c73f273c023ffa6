package netdist

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Fault errors returned by the loopback transport. Both are transport
// errors (retryable) rather than RemoteErrors: they model the request
// never reaching the site or the response never coming back.
var (
	// ErrDropped models a lost frame: the request was consumed and no
	// response arrived before the deadline.
	ErrDropped = errors.New("netdist: request dropped (deadline exceeded)")
	// ErrPartitioned models a network partition: the site cannot be
	// reached at all.
	ErrPartitioned = errors.New("netdist: site partitioned")
	// ErrInjected models a transient transport failure (connection
	// reset).
	ErrInjected = errors.New("netdist: injected transport error")
)

// faults is the per-site fault state of a Loopback.
type faults struct {
	partitioned bool
	latency     time.Duration
	dropNext    int // consume request, return ErrDropped, n times
	failNext    int // return ErrInjected, n times
}

// LoopbackStats counts traffic through the loopback, including faulted
// attempts (which a real wire would also carry).
type LoopbackStats struct {
	// Attempts counts RoundTrip calls per site, faulted ones included.
	Attempts map[string]int64
	// Delivered counts requests that reached the site's handler.
	Delivered map[string]int64
}

// Loopback is an in-process Transport: each site name maps to a Server
// whose Handle runs on the caller's goroutine. Requests and responses
// are round-tripped through the frame codec, so the loopback exercises
// exactly the bytes TCP would carry — plus deterministic fault
// injection, so retry/timeout/partition paths are testable without a
// flaky network.
//
// Faults are scripted, not probabilistic: Partition/Heal flip a site's
// reachability, DropNext/FailNext consume a fixed number of future
// requests, SetLatency delays every request (and times it out when the
// latency exceeds the caller's deadline).
type Loopback struct {
	mu     sync.Mutex
	sites  map[string]*Server
	faults map[string]*faults
	stats  LoopbackStats
}

// NewLoopback returns an empty loopback transport.
func NewLoopback() *Loopback {
	return &Loopback{
		sites:  map[string]*Server{},
		faults: map[string]*faults{},
		stats:  LoopbackStats{Attempts: map[string]int64{}, Delivered: map[string]int64{}},
	}
}

// AddSite registers srv under the site name.
func (lb *Loopback) AddSite(site string, srv *Server) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.sites[site] = srv
	if lb.faults[site] == nil {
		lb.faults[site] = &faults{}
	}
}

// fault returns the site's fault state, creating it if absent. Caller
// holds lb.mu.
func (lb *Loopback) fault(site string) *faults {
	f := lb.faults[site]
	if f == nil {
		f = &faults{}
		lb.faults[site] = f
	}
	return f
}

// Partition makes the site unreachable until Heal.
func (lb *Loopback) Partition(site string) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.fault(site).partitioned = true
}

// Heal reconnects a partitioned site.
func (lb *Loopback) Heal(site string) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.fault(site).partitioned = false
}

// SetLatency delays every future request to the site by d.
func (lb *Loopback) SetLatency(site string, d time.Duration) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.fault(site).latency = d
}

// DropNext makes the next n requests to the site vanish (deadline
// exceeded, no response).
func (lb *Loopback) DropNext(site string, n int) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.fault(site).dropNext += n
}

// FailNext makes the next n requests to the site fail with a transport
// error before delivery.
func (lb *Loopback) FailNext(site string, n int) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.fault(site).failNext += n
}

// Stats returns a deep copy of the traffic counters.
func (lb *Loopback) Stats() LoopbackStats {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	out := LoopbackStats{
		Attempts:  make(map[string]int64, len(lb.stats.Attempts)),
		Delivered: make(map[string]int64, len(lb.stats.Delivered)),
	}
	for k, v := range lb.stats.Attempts {
		out.Attempts[k] = v
	}
	for k, v := range lb.stats.Delivered {
		out.Delivered[k] = v
	}
	return out
}

// RoundTrip applies the site's scripted faults, then hands the request —
// serialized and reparsed through the frame codec — to the site's
// server.
func (lb *Loopback) RoundTrip(site string, req *Request, timeout time.Duration) (*Response, error) {
	lb.mu.Lock()
	srv, ok := lb.sites[site]
	lb.stats.Attempts[site]++
	if !ok {
		lb.mu.Unlock()
		return nil, fmt.Errorf("netdist: unknown site %q", site)
	}
	f := lb.fault(site)
	switch {
	case f.partitioned:
		lb.mu.Unlock()
		return nil, ErrPartitioned
	case f.failNext > 0:
		f.failNext--
		lb.mu.Unlock()
		return nil, ErrInjected
	case f.dropNext > 0:
		f.dropNext--
		lb.mu.Unlock()
		return nil, ErrDropped
	}
	latency := f.latency
	lb.stats.Delivered[site]++
	lb.mu.Unlock()

	if latency > 0 {
		if timeout > 0 && latency >= timeout {
			// The response cannot arrive before the deadline; model the
			// client giving up at the deadline without burning real wall
			// clock on the undeliverable remainder.
			time.Sleep(timeout)
			return nil, ErrDropped
		}
		time.Sleep(latency)
	}
	var wired Request
	if err := roundTrip(req, &wired); err != nil {
		return nil, err
	}
	var out Response
	if err := roundTrip(srv.Handle(&wired), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Close is a no-op: loopback holds no OS resources.
func (lb *Loopback) Close() error { return nil }
