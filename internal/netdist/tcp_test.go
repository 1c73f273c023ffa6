package netdist

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/store"
)

// startSite serves db on an ephemeral 127.0.0.1 port and returns the
// address; the listener closes with the test.
func startSite(t *testing.T, db *store.Store, relations []string) (string, *Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := NewServer(db, relations)
	go srv.Serve(l)
	return l.Addr().String(), srv
}

func TestTCPScanFetch(t *testing.T) {
	db := newSiteStore(t, "r(3). r(7). r(7777).")
	addr, srv := startSite(t, db, []string{"r"})
	tr := NewTCPTransport()
	defer tr.Close()

	resp, err := tr.RoundTrip(addr, &Request{ID: 1, Type: OpScan, Relation: "r"}, time.Second)
	if err != nil || !resp.OK || len(resp.Tuples) != 3 {
		t.Fatalf("scan over TCP: resp=%+v err=%v", resp, err)
	}
	resp, err = tr.RoundTrip(addr, &Request{ID: 2, Type: OpFetch, Relation: "r", Col: 0, Value: "#7"}, time.Second)
	if err != nil || !resp.OK || len(resp.Tuples) != 1 {
		t.Fatalf("fetch over TCP: resp=%+v err=%v", resp, err)
	}
	resp, err = tr.RoundTrip(addr, &Request{ID: 3, Type: OpScan, Relation: "r"}, time.Second)
	if err != nil || !resp.OK || len(resp.Tuples) != 3 {
		t.Fatalf("second scan over TCP: resp=%+v err=%v", resp, err)
	}
	// Sequential round trips reuse the pooled connection.
	if st := srv.Stats(); st.Requests[OpScan] != 2 || st.Requests[OpFetch] != 1 {
		t.Errorf("server stats: %+v", st)
	}
	tr.mu.Lock()
	idle := len(tr.idle[addr])
	tr.mu.Unlock()
	if idle != 1 {
		t.Errorf("idle pool holds %d conns, want 1 (reuse)", idle)
	}
}

func TestTCPDialFailure(t *testing.T) {
	tr := NewTCPTransport()
	tr.DialTimeout = 200 * time.Millisecond
	defer tr.Close()
	// A port nothing listens on: grab one and close it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	if _, err := tr.RoundTrip(addr, &Request{Type: OpScan, Relation: "r"}, time.Second); err == nil {
		t.Error("round trip to a dead site succeeded")
	}
}

func TestTCPDeadlineOnSilentPeer(t *testing.T) {
	// A listener that accepts and never answers: the round trip must
	// respect its deadline instead of hanging.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Swallow input, never reply.
		}
	}()
	tr := NewTCPTransport()
	defer tr.Close()
	start := time.Now()
	_, err = tr.RoundTrip(l.Addr().String(), &Request{Type: OpScan, Relation: "r"}, 100*time.Millisecond)
	if err == nil {
		t.Fatal("round trip against a silent peer succeeded")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("deadline not honored: took %v", el)
	}
}

// TestCoordinatorOverTCP runs the full coordinator stack across real
// sockets: two sites on ephemeral ports, mixed workload, then one site
// goes down mid-stream.
func TestCoordinatorOverTCP(t *testing.T) {
	deptDB := newSiteStore(t, "dept(toy). dept(shoe).")
	salDB := newSiteStore(t, "salRange(toy,10,100). salRange(shoe,20,200).")
	deptAddr, _ := startSite(t, deptDB, []string{"dept"})
	salAddr, _ := startSite(t, salDB, []string{"salRange"})

	local := store.New()
	if _, err := local.Insert("emp", relation.TupleOf(strv("ann"), strv("toy"), intv(50))); err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport()
	defer tr.Close()
	co, err := New(local, []SiteSpec{
		{Site: deptAddr, Relations: []string{"dept"}},
		{Site: salAddr, Relations: []string{"salRange"}},
	}, tr, Options{
		Checker: core.Options{LocalRelations: []string{"emp"}},
		Timeout: time.Second,
		Retries: 1,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"ri": "panic :- emp(E,D,S) & not dept(D).",
		"lo": "panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.",
		"hi": "panic :- emp(E,D,S) & salRange(D,Low,High) & S > High.",
	} {
		if err := co.Checker.AddConstraintSource(name, src); err != nil {
			t.Fatal(err)
		}
	}
	// A valid hire commits; an over-cap hire is rejected with verdicts.
	rep, err := co.Apply(store.Ins("emp", relation.TupleOf(strv("bob"), strv("shoe"), intv(60))))
	if err != nil || !rep.Applied {
		t.Fatalf("valid hire: rep=%+v err=%v", rep, err)
	}
	rep, err = co.Apply(store.Ins("emp", relation.TupleOf(strv("eve"), strv("toy"), intv(900))))
	if err != nil || rep.Applied {
		t.Fatalf("over-cap hire: rep=%+v err=%v", rep, err)
	}
	if vs := rep.Violations(); len(vs) != 1 || vs[0] != "hi" {
		t.Errorf("violations = %v", vs)
	}
	if st := co.Stats(); st.RoundTrips == 0 || st.WireTuples == 0 {
		t.Errorf("no wire traffic recorded: %+v", st)
	}
}
