package netdist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/store"
)

// TestRoutedCheckAllocs pins what a warm routed Check allocates: the plan,
// one key-group round trip over the loopback to the owning shard — its
// frames encoded and decoded by the frame codec in pooled buffers, its
// wire constants resolved from the intern pool, the response's tuples
// decoded in a fixed number of allocations — and the mirror refresh.
// The pin is the count measured; a change that lowers it lowers the pin.
func TestRoutedCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	co, lb, _ := buildShardedArm(t, shardArm{name: "sharded4", shards: 4})
	// No employee works in department 15: no stored tuple certifies the
	// insert, so every check asks dept's shard for key 15.
	hire := store.Ins("emp", relation.Ints(2000, 15))
	check := func() {
		if rep, err := co.Check(hire); err != nil || !rep.Applied {
			t.Fatalf("rep=%+v err=%v", rep, err)
		}
	}
	check()
	before, trips := attempts(lb), co.Stats().RoundTrips
	got := testing.AllocsPerRun(200, check)
	if n := co.Stats().RoundTrips - trips; n != 201 || attempts(lb)-before != 201 {
		t.Fatalf("%d round trips over 201 checks, want one each", n)
	}
	const pin = 21
	if got > pin {
		t.Errorf("a warm routed Check allocates %v objects, want at most %d", got, pin)
	}
}

// TestSiteAnswerAllocs: a site renders a scan's or a fetch's answer into
// one []string of values and one [][]string of tuples, so answering 50
// tuples allocates as many objects as answering one.
func TestSiteAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	reqs := []Request{
		{Type: OpScan, Relation: "r"},
		{Type: OpFetch, Relation: "r", Col: 1, Value: "$a"},
		{Type: OpFetch, Relation: "r", Lo: "#0"},
	}
	allocs := func(n int) []float64 {
		var facts strings.Builder
		for i := range n {
			fmt.Fprintf(&facts, "r(%d, a). ", i)
		}
		srv := NewServer(newSiteStore(t, facts.String()), nil)
		var out []float64
		for i := range reqs {
			req := &reqs[i]
			if resp := srv.Handle(req); !resp.OK || len(resp.Tuples) != n {
				t.Fatalf("%+v answered %+v, want %d tuples", req, resp, n)
			}
			out = append(out, testing.AllocsPerRun(100, func() { srv.Handle(req) }))
		}
		return out
	}
	one, fifty := allocs(1), allocs(50)
	for i, req := range reqs {
		if fifty[i] != one[i] {
			t.Errorf("%+v: %v objects for 50 tuples, %v for one", req, fifty[i], one[i])
		}
	}
}
