package netdist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

func TestFrameRoundTrip(t *testing.T) {
	req := &Request{ID: 7, Type: OpFetch, Relation: "emp", Col: 2, Value: "#50"}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := ReadFrame(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != req.ID || got.Type != req.Type || got.Relation != req.Relation || got.Col != req.Col || got.Value != req.Value {
		t.Errorf("round trip: got %+v, want %+v", got, *req)
	}
}

func TestFrameRejectsOversizedAndTruncated(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if err := ReadFrame(bytes.NewReader(hdr[:]), &Request{}); err == nil {
		t.Error("oversized frame accepted")
	}
	// A declared length longer than the stream must error, not hang or
	// succeed.
	binary.BigEndian.PutUint32(hdr[:], 100)
	short := append(hdr[:], []byte(`{"id":1}`)...)
	if err := ReadFrame(bytes.NewReader(short), &Request{}); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []ast.Value{
		ast.Int(42),
		ast.Int(-3),
		ast.Rat(1, 3),
		ast.Float(2.5),
		ast.Str("toy"),
		ast.Str("New York"),
		ast.Str(""),
		ast.Str("#42"),  // a symbol that looks like a number encoding
		ast.Str("$odd"), // a symbol that looks like a string encoding
	}
	for _, v := range vals {
		got, err := DecodeValue(EncodeValue(v))
		if err != nil {
			t.Errorf("decode(encode(%v)): %v", v, err)
			continue
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %q -> %v", v, EncodeValue(v), got)
		}
	}
	for _, bad := range []string{"", "42", "#", "#x/y"} {
		if _, err := DecodeValue(bad); err == nil {
			t.Errorf("DecodeValue(%q) accepted", bad)
		}
	}
}

// TestDecodeValueRefusesHugeNumbers: the site decoder reads only the
// canonical -?[0-9]+(/[0-9]+)? that EncodeValue writes, and no side of a
// fraction may need more than ast.MaxNumberDigits digits — "#1e999998"
// would otherwise cost a big.Rat of a million digits, interned for good.
func TestDecodeValueRefusesHugeNumbers(t *testing.T) {
	nines := strings.Repeat("9", 300)
	exact := new(big.Rat)
	exact.SetString(nines + "/7" + nines)
	for _, v := range []ast.Value{{Kind: ast.NumberValue, Num: exact}, ast.Int(-12)} {
		if got, err := DecodeValue(EncodeValue(v)); err != nil || !got.Equal(v) {
			t.Errorf("round trip of %s: %v %v", EncodeValue(v), got, err)
		}
	}
	start := time.Now()
	for _, bad := range []string{"#1e999998", "#1.5", "#+1", "#0x10", "#1/0x3", "#" + strings.Repeat("1", ast.MaxNumberDigits+1)} {
		if v, err := DecodeValue(bad); err == nil {
			t.Errorf("DecodeValue(%.20q) = %v, want an error", bad, v)
		}
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Errorf("refusing took %v", took)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	tup := relation.TupleOf(ast.Str("jones"), ast.Str("shoe"), ast.Int(50))
	got, err := DecodeTuple(EncodeTuple(tup))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tup) {
		t.Errorf("tuple round trip: got %v, want %v", got, tup)
	}
}

func newSiteStore(t *testing.T, facts string) *store.Store {
	t.Helper()
	db := store.New()
	if err := db.LoadFacts(parser.MustParseProgram(facts)); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestServerScanFetch(t *testing.T) {
	db := newSiteStore(t, "emp(ann,toy,50). emp(bob,shoe,60). dept(toy).")
	srv := NewServer(db, []string{"emp"})

	resp := srv.Handle(&Request{ID: 1, Type: OpScan, Relation: "emp"})
	if !resp.OK || len(resp.Tuples) != 2 || resp.Arity != 3 || resp.ID != 1 {
		t.Fatalf("scan: %+v", resp)
	}
	// dept is not served.
	if resp := srv.Handle(&Request{Type: OpScan, Relation: "dept"}); resp.OK {
		t.Error("scan of unserved relation succeeded")
	}
	resp = srv.Handle(&Request{Type: OpFetch, Relation: "emp", Col: 1, Value: EncodeValue(ast.Str("toy"))})
	if !resp.OK || len(resp.Tuples) != 1 {
		t.Fatalf("fetch: %+v", resp)
	}
	if resp := srv.Handle(&Request{Type: OpFetch, Relation: "emp", Col: 9, Value: "$toy"}); resp.OK {
		t.Error("out-of-range column accepted")
	}

	st := srv.Stats()
	if st.Requests[OpScan] != 2 || st.TuplesSent["emp"] != 3 || st.Errors != 2 {
		t.Errorf("stats: %+v", st)
	}
	// The stats copy is deep.
	st.TuplesSent["emp"] = 999
	if srv.Stats().TuplesSent["emp"] == 999 {
		t.Error("Stats leaked the live map")
	}
}

// TestServerBoundedFetch: a fetch bounded by Lo and Hi answers the tuples
// whose column lies between them from the site's ordered index, and the
// bounds are outside input — an undecodable one, an open flag without
// its bound, a Value beside bounds, a column out of range and bounds on a
// relation the site does not serve are refused; Lo above Hi is an empty
// answer.
func TestServerBoundedFetch(t *testing.T) {
	srv := NewServer(newSiteStore(t, "r(3, a). r(5, c). r(7, b). s(1)."), []string{"r"})
	for _, c := range []struct {
		req  Request
		want int // tuples answered; -1: refused
	}{
		{Request{Lo: "#3", Hi: "#7"}, 3},
		{Request{Lo: "#3", Hi: "#7", LoOpen: true}, 2},
		{Request{Lo: "#3", Hi: "#7", LoOpen: true, HiOpen: true}, 1},
		{Request{Lo: "#4"}, 2},
		{Request{Hi: "#5", HiOpen: true}, 1},
		{Request{Lo: "#7", Hi: "#7"}, 1},
		{Request{Lo: "#7", Hi: "#3"}, 0},
		{Request{Col: 1, Lo: "$b"}, 2},
		{Request{Col: 1, Hi: "#9"}, 0}, // numbers sort before strings
		{Request{Lo: "#x"}, -1},
		{Request{Hi: "3"}, -1},
		{Request{LoOpen: true}, -1},
		{Request{Hi: "#7", LoOpen: true}, -1},
		{Request{Lo: "#3", Value: "#3"}, -1},
		{Request{Col: 2, Lo: "#3"}, -1},
		{Request{Col: -1, Hi: "#3"}, -1},
		{Request{Relation: "s", Lo: "#0"}, -1},
	} {
		req := c.req
		req.Type = OpFetch
		if req.Relation == "" {
			req.Relation = "r"
		}
		resp := srv.Handle(&req)
		if c.want < 0 {
			if resp.OK {
				t.Errorf("%+v: answered %v, want a refusal", c.req, resp.Tuples)
			}
			continue
		}
		if !resp.OK || len(resp.Tuples) != c.want || resp.Arity != 2 {
			t.Errorf("%+v: %+v, want %d tuples", c.req, resp, c.want)
		}
		for _, tu := range resp.Tuples {
			if _, err := DecodeTuple(tu); err != nil {
				t.Errorf("%+v: answered an undecodable tuple %v", c.req, tu)
			}
		}
	}
}

// TestSiteFetchesInternNothing: a fetch names values the client chose, so
// answering it must not grow the site's intern pool — a point the pool
// lacks is in no stored tuple and answers empty, and bounds are compared,
// not interned. 10 000 fetches of distinct symbols, and fetches of
// rationals that are no int64, leave relation.InternSize() unchanged.
func TestSiteFetchesInternNothing(t *testing.T) {
	lb := NewLoopback()
	lb.AddSite("s", NewServer(newSiteStore(t, "r(3, a). r(5, c). r(7, b)."), []string{"r"}))
	fetch := func(req Request) {
		t.Helper()
		req.Type, req.Relation = OpFetch, "r"
		resp, err := lb.RoundTrip("s", &req, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK || len(resp.Tuples) != 0 {
			t.Fatalf("%+v: %+v, want an empty answer", req, resp)
		}
	}
	before := relation.InternSize()
	for i := 0; i < 10000; i++ {
		fetch(Request{Col: 1, Value: fmt.Sprintf("$junk%d", i)})
	}
	fetch(Request{Value: "#1/3"})
	fetch(Request{Value: "#123456789012345678901234567890"})
	fetch(Request{Lo: "#1/3", Hi: "#2/3"})
	fetch(Request{Col: 1, Lo: "$junk-lo", Hi: "$junk-hi", HiOpen: true})
	if got := relation.InternSize(); got != before {
		t.Errorf("fetches interned %d values", got-before)
	}
}

func TestServerApplyAndReads(t *testing.T) {
	db := newSiteStore(t, "r(1).")
	srv := NewServer(db, nil)
	resp := srv.Handle(&Request{Type: OpApply, Relation: "r", Insert: true, Tuple: EncodeTuple(relation.Ints(2))})
	if !resp.OK || !resp.Changed {
		t.Fatalf("apply insert: %+v", resp)
	}
	resp = srv.Handle(&Request{Type: OpApply, Relation: "r", Insert: true, Tuple: EncodeTuple(relation.Ints(2))})
	if !resp.OK || resp.Changed {
		t.Fatalf("duplicate insert reported change: %+v", resp)
	}
	resp = srv.Handle(&Request{Type: OpApply, Relation: "r", Tuple: EncodeTuple(relation.Ints(1))})
	if !resp.OK || !resp.Changed {
		t.Fatalf("apply delete: %+v", resp)
	}
	reads := db.Reads("r")
	srv.Handle(&Request{Type: OpScan, Relation: "r"})
	if got := db.Reads("r") - reads; got != 1 {
		t.Fatalf("scan charged %d reads to the site store, want 1", got)
	}
	if resp := srv.Handle(&Request{Type: "bogus"}); resp.OK {
		t.Error("unknown request type accepted")
	}
}

// TestSiteRefusesUnsentOps: a site answers only what a coordinator
// sends — scan, fetch, apply and replace. Any TCP client could once make
// it parse and evaluate a datalog program over its served relations
// (eval), or list its relations and read counters (ping, reads); each
// is now refused.
func TestSiteRefusesUnsentOps(t *testing.T) {
	addr, srv := startSite(t, newSiteStore(t, "r(3). r(7)."), []string{"r"})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, req := range []Request{
		{ID: 1, Type: "eval", Relation: "r"},
		{ID: 2, Type: "reads"},
		{ID: 3, Type: "ping"},
	} {
		if err := WriteFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := ReadFrame(conn, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Err == "" || resp.Tuples != nil || resp.Arity != 0 || resp.Changed || resp.Spans != nil {
			t.Errorf("%s: site answered %+v", req.Type, resp)
		}
		if resp.ID != uint64(i+1) {
			t.Errorf("%s: response id %d", req.Type, resp.ID)
		}
	}
	if st := srv.Stats(); st.Errors != 3 || len(st.TuplesSent) != 0 {
		t.Errorf("site stats after refusals: %+v", st)
	}
}

func TestSiteErrorMatchesSentinel(t *testing.T) {
	err := &SiteError{Site: "s1", Err: ErrPartitioned}
	if !errors.Is(err, ErrSiteUnavailable) {
		t.Error("SiteError does not match ErrSiteUnavailable")
	}
	if !errors.Is(err, ErrPartitioned) {
		t.Error("SiteError does not unwrap to its cause")
	}
	if !strings.Contains(err.Error(), "s1") {
		t.Error("SiteError message lacks the site")
	}
}

// FuzzSiteHandle feeds arbitrary bytes to a site as one frame: whatever
// decodes is handled without a panic, a request of any type but the three
// a coordinator sends is refused, and a fetch answered holds only tuples
// that lie in what it selects.
func FuzzSiteHandle(f *testing.F) {
	for _, req := range []Request{
		{ID: 1, Type: OpScan, Relation: "r"},
		{ID: 2, Type: OpFetch, Relation: "r", Col: 1, Value: "#7"},
		{ID: 3, Type: OpApply, Relation: "r", Insert: true, Tuple: []string{"#1", "$a"}},
		{ID: 4, Type: OpApply, Relation: "r", Tuple: []string{"#3"}},
		{ID: 5, Type: "replace", Relation: "r", Tuple: []string{"#1/2", "$b"}},
		{ID: 6, Type: OpApply, Relation: "s", Insert: true, Tuple: []string{"#2"}},
		{ID: 7, Type: "eval", Relation: "r"},
		{ID: 8, Type: "ping"},
		{ID: 9, Type: OpFetch, Relation: "r", Lo: "#3", Hi: "#7", HiOpen: true},
		{ID: 10, Type: OpFetch, Relation: "r", Col: 1, Lo: "$b", LoOpen: true},
		{ID: 11, Type: OpFetch, Relation: "r", Lo: "#7", Hi: "#3"},
		{ID: 12, Type: OpFetch, Relation: "r", Col: 3, Hi: "#1/2", Value: "#1"},
		{ID: 13, Type: OpFetch, Relation: "s", Lo: "#0"},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var req Request
		if err := ReadFrame(bytes.NewReader(frame), &req); err != nil {
			return
		}
		srv := NewServer(newSiteStore(t, "r(3, a). r(7, b). s(1)."), []string{"r"})
		resp := srv.Handle(&req)
		switch req.Type {
		case OpFetch:
			if !resp.OK {
				break
			}
			rg, err := req.fetchRange()
			if err != nil {
				t.Fatalf("site answered a fetch it cannot decode (%v): %+v", err, resp)
			}
			for _, tu := range resp.Tuples {
				if v, err := DecodeTuple(tu); err != nil || !rg.Contains(v[rg.Col]) {
					t.Fatalf("fetch %+v answered %v outside its range", req, tu)
				}
			}
		case OpScan, OpApply:
		default:
			if resp.OK {
				t.Fatalf("site answered a %q request: %+v", req.Type, resp)
			}
		}
	})
}
