package netdist

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/store"
)

// TestRoutedCheckAllocs pins what a warm routed Check allocates: one
// key-group round trip over the loopback to the owning shard — its frames
// encoded and decoded by the frame codec in pooled buffers, the site's
// side of it in a pooled exchange, its wire constants resolved from the
// intern pool — and the mirror refresh. The plan, the read, the request
// and the response come from the decision's pooled scratch, the site
// answers in a pooled exchange, and the rows are diffed in the store's
// room, so what is left is the response's tuples decoding into one
// []string and one [][]string. The pin is the count measured; a change
// that lowers it lowers the pin.
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
	const pin = 2
	if got > pin {
		t.Errorf("a warm routed Check allocates %v objects, want at most %d", got, pin)
	}
}

// TestRoutedApplyAllocs pins what a warm propagated write allocates: a
// dept insert and the delete that undoes it, each one OpApply round trip
// to the owning shard. Beside the site's decoding of the request's tuple
// and storing it, and the mirror's write, nothing is allocated: the
// request and its tuple's rendering come from the decision's scratch, the
// response from the pool. The pin is the count measured.
func TestRoutedApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	co, lb, leaders := buildShardedArm(t, shardArm{name: "sharded4", shards: 4})
	ins, del := store.Ins("dept", relation.Ints(77)), store.Del("dept", relation.Ints(77))
	pair := func() {
		for _, u := range []store.Update{ins, del} {
			if rep, err := co.Apply(u); err != nil || !rep.Applied {
				t.Fatalf("%s: rep=%+v err=%v", u, rep, err)
			}
		}
	}
	pair()
	before := attempts(lb)
	got := testing.AllocsPerRun(100, pair)
	if n := attempts(lb) - before; n != 202 {
		t.Fatalf("%d round trips over 101 insert/delete pairs, want one per write", n)
	}
	site := co.place["dept"].Shards[co.place.ShardOf("dept", ins.Tuple[0])].Leader
	if leaders[site].Contains("dept", ins.Tuple) {
		t.Fatalf("site %s still holds %s after its delete", site, ins.Tuple)
	}
	const pin = 5
	if got > pin {
		t.Errorf("a warm propagated insert and delete allocate %v objects, want at most %d", got, pin)
	}
}

// TestBatchReadAllocs: an atomic batch of 16 inserts, each of which has
// its department's key group fetched from its shard, allocates as many
// objects whether the groups ship 16 tuples or 816: the decoded rows, the
// requests and the responses are the decision's scratch, and a response's
// tuples decode in a fixed number of allocations.
func TestBatchReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const members = 16
	allocs := func(fill int) (float64, int64) {
		place := Placement{"dept": {KeyCol: 0, Shards: []ShardSpec{{Leader: "a"}, {Leader: "b"}}}}
		lb := NewLoopback()
		dbs := map[string]*store.Store{"a": store.New(), "b": store.New()}
		for site, db := range dbs {
			lb.AddSite(site, NewServer(db, []string{"dept"}))
		}
		for d := int64(0); d < members; d++ {
			db := dbs[place["dept"].Shards[place.ShardOf("dept", ast.Int(d))].Leader]
			for x := int64(0); x <= int64(fill); x++ {
				if _, err := db.Insert("dept", relation.Ints(d, d+x*1000)); err != nil {
					t.Fatal(err)
				}
			}
		}
		co, err := NewPlaced(store.New(), place, lb, Options{Checker: core.Options{LocalRelations: []string{"emp"}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := co.Checker.AddConstraintSource("ref", "panic :- emp(E, D) & not dept(D, D)."); err != nil {
			t.Fatal(err)
		}
		hire, fire := make([]store.Update, members), make([]store.Update, members)
		for i := range hire {
			hire[i] = store.Ins("emp", relation.Ints(int64(100+i), int64(i)))
			fire[i] = store.Del("emp", hire[i].Tuple)
		}
		round := func() {
			for _, us := range [][]store.Update{hire, fire} {
				if br, err := co.ApplyBatch(us); err != nil || !br.Applied {
					t.Fatalf("batch: %+v err=%v", br, err)
				}
			}
		}
		round()
		// A collection empties the pools the scratch comes from, and the
		// batch that ships more makes more garbage: with none, the counts
		// compare the code, not the collector's timing.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		tuples := co.Stats().WireTuples
		got := testing.AllocsPerRun(100, round)
		return got, (co.Stats().WireTuples - tuples) / 101
	}
	few, fewTuples := allocs(0)
	many, manyTuples := allocs(50)
	if fewTuples != members || manyTuples != 51*members {
		t.Fatalf("a batch shipped %d and %d tuples, want %d and %d", fewTuples, manyTuples, members, 51*members)
	}
	if few != many {
		t.Errorf("an atomic batch of %d allocates %v objects shipping %d tuples, %v shipping %d", members, few, fewTuples, many, manyTuples)
	}
	t.Logf("%v objects a batch and its undo", few)
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
