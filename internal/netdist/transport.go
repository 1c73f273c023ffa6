package netdist

import (
	"sync"
	"time"
)

// Transport carries one request to a named site and returns its
// response. Implementations must be safe for concurrent use.
//
// The contract the coordinator's retry loop relies on:
//   - a non-nil error means the request may not have reached the site
//     (dial failure, timeout, partition) — retryable;
//   - a response with OK=false means the site answered and refused —
//     a *RemoteError, not retryable;
//   - timeout bounds the whole round trip.
//
// The response is the caller's: a transport keeps no reference to it and
// writes nothing into it once RoundTrip has returned, and the
// coordinator recycles it into the pool the package's transports take
// theirs from (newResponse) as soon as it has read it. A transport
// wrapping another passes the inner response on and keeps at most a copy
// of it.
type Transport interface {
	RoundTrip(site string, req *Request, timeout time.Duration) (*Response, error)
	Close() error
}

// responses holds the responses the transports decode replies into.
var responses = sync.Pool{New: func() any { return new(Response) }}

// newResponse returns a response from the pool for a transport to decode
// a reply into; the decode overwrites every field.
func newResponse() *Response { return responses.Get().(*Response) }

// recycle puts a response its owner has done with back in the pool,
// emptied: whatever it pointed to is not kept alive by the pool, and a
// copy of it taken earlier still reads what it read.
func recycle(r *Response) {
	*r = Response{}
	responses.Put(r)
}
