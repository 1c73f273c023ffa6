package netdist

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// TCPTransport dials sites over TCP and reuses idle connections. A
// connection is checked out exclusively for one round trip (the protocol
// does not multiplex), returned to the per-site idle pool on success and
// closed on any error — a failed connection's state is unknowable, so it
// is never reused.
type TCPTransport struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// MaxIdlePerSite bounds the idle pool per site (default 4); excess
	// connections are closed on return.
	MaxIdlePerSite int

	mu     sync.Mutex
	idle   map[string][]net.Conn
	closed bool
}

// NewTCPTransport returns a transport with default timeouts and pool
// size.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{DialTimeout: 2 * time.Second, MaxIdlePerSite: 4, idle: map[string][]net.Conn{}}
}

// get pops an idle connection for the site or dials a fresh one.
func (t *TCPTransport) get(site string) (net.Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("netdist: transport closed")
	}
	if conns := t.idle[site]; len(conns) > 0 {
		c := conns[len(conns)-1]
		t.idle[site] = conns[:len(conns)-1]
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	return net.DialTimeout("tcp", site, t.DialTimeout)
}

// put returns a healthy connection to the pool.
func (t *TCPTransport) put(site string, c net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || len(t.idle[site]) >= t.MaxIdlePerSite {
		c.Close()
		return
	}
	t.idle[site] = append(t.idle[site], c)
}

// RoundTrip sends req to site and reads the response, all within
// timeout.
func (t *TCPTransport) RoundTrip(site string, req *Request, timeout time.Duration) (*Response, error) {
	c, err := t.get(site)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := WriteFrame(c, req); err != nil {
		c.Close()
		return nil, err
	}
	// The frame is read here, on the caller's goroutine, before RoundTrip
	// returns; a reply that comes after the deadline finds the connection
	// closed and is never read into anything.
	resp := newResponse()
	if err := ReadFrame(c, resp); err != nil {
		c.Close()
		recycle(resp)
		return nil, err
	}
	if resp.ID != req.ID {
		c.Close()
		err := fmt.Errorf("netdist: response id %d for request %d", resp.ID, req.ID)
		recycle(resp)
		return nil, err
	}
	if timeout > 0 {
		if err := c.SetDeadline(time.Time{}); err != nil {
			c.Close()
			return resp, nil
		}
	}
	t.put(site, c)
	return resp, nil
}

// Close closes every idle connection; in-flight round trips finish but
// their connections are not re-pooled.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for _, conns := range t.idle {
		for _, c := range conns {
			c.Close()
		}
	}
	t.idle = map[string][]net.Conn{}
	return nil
}
