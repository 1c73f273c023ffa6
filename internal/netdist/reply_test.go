package netdist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/store"
)

// TestPooledRepliesUnderFaults drives concurrent routed decisions while
// round trips fail and are retried, so pooled responses, requests and
// decision scratch pass from decision to decision while faults cut
// attempts short: over the loopback, transport errors and dropped frames
// (DropNext, FailNext) injected under the decisions' feet; over TCP,
// replies a site sends after the coordinator's deadline. A response
// recycled before its decision has read it, or written after it was
// recycled, is a data race under -race and a wrong verdict without.
func TestPooledRepliesUnderFaults(t *testing.T) {
	t.Run("loopback", func(t *testing.T) {
		co, lb, _ := buildShardedArm(t, shardArm{name: "sharded4", shards: 4, batchWorkers: 4})
		stop := make(chan struct{})
		var injector sync.WaitGroup
		injector.Add(1)
		go func() {
			defer injector.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(300 * time.Microsecond):
				}
				site := fmt.Sprintf("s%d", i%4)
				if i%2 == 0 {
					lb.DropNext(site, 1)
				} else {
					lb.FailNext(site, 1)
				}
			}
		}()
		driveRoutedDecisions(t, co, 150*time.Millisecond)
		close(stop)
		injector.Wait()
		if co.Stats().Retries == 0 {
			t.Error("no round trip was retried: the faults never hit a decision")
		}
		emptyResponses(t)
	})
	t.Run("tcp", func(t *testing.T) {
		late := new(atomic.Int32)
		place := Placement{"dept": {KeyCol: 0}}
		sites := map[string]*store.Store{}
		for range 2 {
			db := store.New()
			addr := startLateSite(t, db, late, 70*time.Millisecond)
			sites[addr] = db
			rp := place["dept"]
			rp.Shards = append(rp.Shards, ShardSpec{Leader: addr})
			place["dept"] = rp
		}
		for k := int64(0); k < 30; k++ {
			leader := place["dept"].Shards[place.ShardOf("dept", relation.Ints(k)[0])].Leader
			if _, err := sites[leader].Insert("dept", relation.Ints(k)); err != nil {
				t.Fatal(err)
			}
		}
		tr := NewTCPTransport()
		defer tr.Close()
		co, err := NewPlaced(store.New(), place, tr, Options{
			Checker:      core.Options{LocalRelations: []string{"emp"}},
			Timeout:      50 * time.Millisecond,
			Backoff:      time.Millisecond,
			ApplyWorkers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := co.Checker.AddConstraintSource("ref", "panic :- emp(E, D) & not dept(D)."); err != nil {
			t.Fatal(err)
		}
		// Every 60ms the next replies the sites send come after the
		// deadline: their requests are retried on fresh connections while
		// the late replies land, 20ms after the deadline, on the
		// connections the coordinator closed — with decisions going on.
		stop := make(chan struct{})
		var armer sync.WaitGroup
		armer.Add(1)
		go func() {
			defer armer.Done()
			for range 4 {
				late.Store(3)
				select {
				case <-stop:
					return
				case <-time.After(60 * time.Millisecond):
				}
			}
		}()
		driveRoutedDecisions(t, co, 400*time.Millisecond)
		close(stop)
		armer.Wait()
		// Once more, then no decision runs while the late replies land.
		late.Store(3)
		driveRoutedDecisions(t, co, 0)
		time.Sleep(140 * time.Millisecond)
		emptyResponses(t)
		if co.Stats().Retries == 0 {
			t.Error("no round trip was retried: no reply came late")
		}
	})
}

// driveRoutedDecisions runs rounds of routed decisions on four goroutines
// at once for the given time and checks every verdict. Worker w decides only employees of
// its own departments 10+w, 14+w, 18+w and 22+w — no stored employee
// certifies them, so each needs its department's key group from its shard
// — and of the absent department 100+w, so the decisions overlap on the
// wire but never on a footprint. A round is a check of a hire, a check of
// a hire into the absent department, and an atomic batch of four hires
// (fetched from the shards at once) followed by the batch that fires them.
// A decision a site could not serve after every retry is refused with
// ErrSiteUnavailable: it is counted, and may not be most of them.
func driveRoutedDecisions(t *testing.T, co *Coordinator, run time.Duration) {
	t.Helper()
	staff := func() int {
		if r := co.Checker.DB().Relation("emp"); r != nil {
			return r.Len()
		}
		return 0
	}
	before := staff()
	var unavailable, decided atomic.Int64
	deadline := time.Now().Add(run)
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			depts := []int64{10 + w, 14 + w, 18 + w, 22 + w}
			verdict := func(what string, applied bool, err error, want bool) bool {
				if errors.Is(err, ErrSiteUnavailable) {
					unavailable.Add(1)
					return false
				}
				if err != nil || applied != want {
					t.Errorf("worker %d: %s: applied %v err %v, want applied %v", w, what, applied, err, want)
					return false
				}
				decided.Add(1)
				return true
			}
			for r := int64(0); r == 0 || time.Now().Before(deadline); r++ {
				id := 10_000*(w+1) + 10*r
				hire := store.Ins("emp", relation.Ints(id, depts[r%4]))
				rep, err := co.Check(hire)
				verdict("check "+hire.String(), rep.Applied, err, true)
				ghost := store.Ins("emp", relation.Ints(id+1, 100+w))
				rep, err = co.Check(ghost)
				verdict("check "+ghost.String(), rep.Applied, err, false)
				hires, fires := make([]store.Update, 4), make([]store.Update, 4)
				for i, d := range depts {
					hires[i] = store.Ins("emp", relation.Ints(id+2+int64(i), d))
					fires[i] = store.Del("emp", hires[i].Tuple)
				}
				br, err := co.ApplyBatch(hires)
				if !verdict("batch of hires", br.Applied, err, true) {
					continue
				}
				for {
					br, err := co.ApplyBatch(fires)
					if !errors.Is(err, ErrSiteUnavailable) {
						verdict("batch of fires", br.Applied, err, true)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if n, m := unavailable.Load(), decided.Load(); n > m/4 {
		t.Errorf("%d decisions refused as unavailable against %d decided", n, m)
	}
	if n := staff(); n != before {
		t.Errorf("the mirror holds %d employees after every batch was undone, %d before", n, before)
	}
}

// emptyResponses takes responses from the pool until it hands out a fresh
// one, and fails on any that is not empty: something wrote it after its
// owner recycled it — a reply decoded into it after its round trip gave up
// on it, say.
func emptyResponses(t *testing.T) {
	t.Helper()
	var held []*Response
	defer func() {
		for _, r := range held {
			recycle(r)
		}
	}()
	for range 1000 {
		r := newResponse()
		held = append(held, r)
		if r.ID != 0 || r.OK || r.Tuples != nil || r.Arity != 0 || r.Err != "" || r.Spans != nil || r.Changed {
			t.Fatalf("a pooled response was written after it was recycled: %+v", *r)
		}
	}
}

// startLateSite serves db over TCP on an ephemeral port; while late is
// positive, each reply the site writes takes one from it and waits delay
// first.
func startLateSite(t *testing.T, db *store.Store, late *atomic.Int32, delay time.Duration) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go NewServer(db, []string{"dept"}).Serve(lateListener{l, late, delay})
	return l.Addr().String()
}

type lateListener struct {
	net.Listener
	late  *atomic.Int32
	delay time.Duration
}

func (l lateListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return lateConn{c, l.late, l.delay}, nil
}

type lateConn struct {
	net.Conn
	late  *atomic.Int32
	delay time.Duration
}

func (c lateConn) Write(b []byte) (int, error) {
	if c.late.Add(-1) >= 0 {
		time.Sleep(c.delay)
	}
	return c.Conn.Write(b)
}
