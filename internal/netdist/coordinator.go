package netdist

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// SiteSpec binds a site address to the relations it owns.
type SiteSpec struct {
	Site      string
	Relations []string
}

// ParseSiteSpec parses the ccheck flag syntax "host:port=rel1,rel2".
func ParseSiteSpec(s string) (SiteSpec, error) {
	addr, rels, ok := strings.Cut(s, "=")
	if !ok || strings.TrimSpace(addr) == "" {
		return SiteSpec{}, fmt.Errorf("netdist: site spec %q is not host:port=rel1,rel2", s)
	}
	spec := SiteSpec{Site: strings.TrimSpace(addr)}
	for _, r := range strings.Split(rels, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			return SiteSpec{}, fmt.Errorf("netdist: site spec %q has an empty relation name", s)
		}
		spec.Relations = append(spec.Relations, r)
	}
	if len(spec.Relations) == 0 {
		return SiteSpec{}, fmt.Errorf("netdist: site spec %q serves no relations", s)
	}
	return spec, nil
}

// Options configure a Coordinator.
type Options struct {
	// Checker configures the staged pipeline. LocalRelations names the
	// relations resident at the coordinator; every relation claimed by a
	// SiteSpec is remote and must not appear in it.
	Checker core.Options
	// Timeout bounds each wire round trip (default 2s).
	Timeout time.Duration
	// Retries is how many times a failed round trip is re-attempted
	// (0 means the default of 3; negative disables retrying).
	Retries int
	// Backoff is the first retry delay; subsequent retries double it,
	// each with up to 50% added jitter (default 10ms).
	Backoff time.Duration
	// Metrics, when non-nil, receives the coordinator's wire metrics:
	// per-op RPC latency histograms, per-site round-trip/retry/error
	// counters and frame-byte totals (names in DESIGN.md). Independent of
	// Checker.Metrics — pass the same registry to see both sides.
	Metrics *obs.Registry
	// Spans, when non-nil, makes each site RPC of a traced request a
	// child span ("rpc.<op>") of the bridge's active span, propagates it
	// over Request.Trace, and adopts the site's echoed spans — so the
	// coordinator's trace store ends up with the full cross-process tree.
	// Pass the same bridge that serves as Checker.Tracer.
	Spans *obs.SpanBridge
	// ApplyWorkers says how a decision's wire reads and writes go out —
	// the refreshes of what a batch's members read, and the publishes of
	// what it writes to remote relations. 0 or 1 sends them one at a time,
	// in member order, on the caller's goroutine: the same round trips
	// every run. Above 1 all the refreshes go out at once, and later all
	// the publishes, so that a batch waits out one round trip instead of
	// one per read; the size of the batch bounds what is in flight. The
	// members are decided in order on the caller's goroutine either way.
	ApplyWorkers int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Timeout <= 0 {
		out.Timeout = 2 * time.Second
	}
	if out.Retries < 0 {
		out.Retries = 0
	} else if out.Retries == 0 {
		out.Retries = 3
	}
	if out.Backoff <= 0 {
		out.Backoff = 10 * time.Millisecond
	}
	return out
}

// Stats aggregates the coordinator's accounting: the decisions, and what
// they cost on the wire.
type Stats struct {
	Updates  int
	Rejected int
	// Unavailable counts updates refused with ErrSiteUnavailable: a site
	// they needed was unreachable, so no verdict was issued.
	Unavailable int
	ByPhase     map[core.Phase]int
	// DecidedLocally counts updates that needed no wire traffic.
	DecidedLocally int
	// RoundTrips counts wire requests that completed (response
	// received), Retries the extra attempts after failures, WireTuples
	// the tuples shipped back over the wire.
	RoundTrips int
	Retries    int
	WireTuples int64
	// RetriesBySite breaks Retries down by the site that failed the
	// attempt; UnavailableBySite breaks Unavailable down by the site whose
	// outage refused the update. Sites absent from the maps never misbehaved
	// — a healthy run has both empty.
	RetriesBySite     map[string]int
	UnavailableBySite map[string]int
	// NetTime is wall clock the updates spent waiting on the wire
	// (fetches, propagations, failed attempts); the initial sync's is
	// left out.
	NetTime time.Duration
	// SyncTrips/SyncTuples account the one-time initial mirror sync in
	// New, kept apart so the counters above count what the updates cost.
	SyncTrips  int
	SyncTuples int64
	// ShardRouted counts reads of a sharded relation that went to the
	// single owning shard — a refresh of one key group of the shard-key
	// column; ShardScatter counts reads that fanned out to every shard.
	// KeyFetches equals ShardRouted: every routed read is a key-group
	// refresh (the field stays for the benchmark, which reads it). All
	// three stay zero without sharded placement.
	ShardRouted  int
	ShardScatter int
	KeyFetches   int
}

// Coordinator runs the staged checker over a local mirror and reaches
// remote sites over a Transport only when an update's plan reads a remote
// relation. Its remote accesses are requests with real failure modes:
// over TCP to site daemons, or over Loopback to in-process sites.
//
// Freshness contract: a decision has one way to read a remote relation.
// Before the checker decides, the coordinator refreshes into the mirror
// what the decision's read claims name of the relations its plan reads
// (reads.add) — the range a compiled check probes, or the whole relation
// for an unbounded check, phase 3 or an evaluation — and the checker then
// reads the mirror like any store. A site outage therefore fails only the
// updates whose plan needed that site — reported as ErrSiteUnavailable,
// never as a verdict.
//
// Concurrency: the coordinator's own accounting is mutex-guarded, and
// its transports tolerate concurrent round trips — but Apply, Check and
// ApplyBatch are safe to overlap only for updates with non-conflicting
// footprints (core.Checker's contract; a batch's footprint is the union
// of its members'). Callers must not race conflicting applies themselves.
type Coordinator struct {
	Checker *core.Checker

	mirror    *store.Store
	transport Transport
	place     Placement // relation -> shards (remote relations only)
	opts      Options
	met       *coordMetrics
	reqID     atomic.Uint64

	// statsMu guards stats and rng (retry jitter); everything else is
	// immutable after New or internally synchronized.
	statsMu sync.Mutex
	stats   Stats
	rng     *rand.Rand
	// sync is the accounting of the initial mirror sync, which Stats books
	// apart (SyncTrips, SyncTuples; NetTime leaves it out) and the metric
	// views count in.
	sync Stats
}

// New builds a coordinator over the local store and the given site
// specs, then performs an initial sync: every remote relation is
// scanned into the mirror so the checker starts from the global state an
// embedded checker over all the relations would see. The local store must hold only local
// relations; a relation claimed by two sites, or both local and remote,
// is an error.
func New(local *store.Store, sites []SiteSpec, tr Transport, opts Options) (*Coordinator, error) {
	seen := map[string]string{}
	for _, spec := range sites {
		for _, rel := range spec.Relations {
			if other, ok := seen[rel]; ok {
				return nil, fmt.Errorf("netdist: relation %s claimed by sites %s and %s", rel, other, spec.Site)
			}
			seen[rel] = spec.Site
		}
	}
	return NewPlaced(local, PlacementFromSites(sites), tr, opts)
}

// NewPlaced is New with an explicit placement: relations may be whole
// (one shard — today's mode, what New builds) or hash-partitioned across
// several sites by a key column. The placement becomes the checker's
// footprint Sharder: a read of a placed relation is preceded by a refresh
// of its mirror, so the scheduler may confine the claim to a key group
// only where the refresh is confined to it (a shard-key probe of a
// sharded relation).
func NewPlaced(local *store.Store, place Placement, tr Transport, opts Options) (*Coordinator, error) {
	if err := place.validate(); err != nil {
		return nil, err
	}
	co := &Coordinator{
		mirror:    local,
		transport: tr,
		place:     place,
		opts:      opts.withDefaults(),
		stats: Stats{
			ByPhase:           map[core.Phase]int{},
			RetriesBySite:     map[string]int{},
			UnavailableBySite: map[string]int{},
		},
		rng: rand.New(rand.NewSource(1)),
	}
	if opts.Metrics != nil {
		co.met = newCoordMetrics(opts.Metrics)
	}
	localSet := map[string]bool{}
	for _, n := range opts.Checker.LocalRelations {
		localSet[n] = true
	}
	anySharded := false
	for rel, rp := range place {
		if localSet[rel] {
			return nil, fmt.Errorf("netdist: relation %s is both local and remotely placed", rel)
		}
		anySharded = anySharded || rp.Sharded()
	}
	co.opts.Checker.Sharder = place
	for _, rel := range co.remoteRelations() {
		if err := co.refresh(mirrorRead{rel: rel}); err != nil {
			return nil, err
		}
	}
	co.sync = co.stats
	co.stats.SyncTrips, co.stats.RoundTrips = co.stats.RoundTrips, 0
	co.stats.SyncTuples, co.stats.WireTuples = co.stats.WireTuples, 0
	co.stats.Retries, co.stats.NetTime = 0, 0
	co.stats.RetriesBySite = map[string]int{}
	co.stats.ShardRouted, co.stats.ShardScatter = 0, 0
	if opts.Metrics != nil {
		co.instrument(opts.Metrics, anySharded)
	}
	co.Checker = core.New(local, co.opts.Checker)
	return co, nil
}

// remoteRelations returns every remotely-placed relation, sorted.
func (co *Coordinator) remoteRelations() []string {
	out := make([]string, 0, len(co.place))
	for rel := range co.place {
		out = append(out, rel)
	}
	sort.Strings(out)
	return out
}

// Stats returns the accumulated statistics; the maps are copies.
func (co *Coordinator) Stats() Stats {
	co.statsMu.Lock()
	defer co.statsMu.Unlock()
	st := co.stats
	st.KeyFetches = st.ShardRouted
	st.ByPhase = make(map[core.Phase]int, len(co.stats.ByPhase))
	for p, n := range co.stats.ByPhase {
		st.ByPhase[p] = n
	}
	st.RetriesBySite = make(map[string]int, len(co.stats.RetriesBySite))
	for s, n := range co.stats.RetriesBySite {
		st.RetriesBySite[s] = n
	}
	st.UnavailableBySite = make(map[string]int, len(co.stats.UnavailableBySite))
	for s, n := range co.stats.UnavailableBySite {
		st.UnavailableBySite[s] = n
	}
	return st
}

// call performs one request with bounded retries and exponential
// backoff with jitter. Transport errors retry; RemoteErrors (the site
// answered and refused) do not. After the last failed attempt the error
// is a *SiteError matching ErrSiteUnavailable.
func (co *Coordinator) call(site string, req *Request) (*Response, error) {
	req.ID = co.reqID.Add(1)
	var sp *obs.Span
	if parent := co.opts.Spans.Active(); parent != nil {
		sp = co.opts.Spans.Tracer().StartChild(parent, "rpc."+req.Type)
		sp.SetAttr("site", site)
		if req.Relation != "" {
			sp.SetAttr("relation", req.Relation)
		}
		req.Trace = sp.Context().Traceparent()
		defer sp.End()
	}
	backoff := co.opts.Backoff
	var lastErr error
	attempts := 0
	for attempt := 0; attempt <= co.opts.Retries; attempt++ {
		attempts++
		if attempt > 0 {
			co.statsMu.Lock()
			co.stats.Retries++
			co.stats.RetriesBySite[site]++
			jitter := time.Duration(co.rng.Int63n(int64(backoff)/2 + 1))
			co.statsMu.Unlock()
			time.Sleep(backoff + jitter)
			backoff *= 2
		}
		start := time.Now()
		resp, err := co.transport.RoundTrip(site, req, co.opts.Timeout)
		elapsed := time.Since(start)
		co.statsMu.Lock()
		co.stats.NetTime += elapsed
		co.statsMu.Unlock()
		co.met.observeAttempt(site, req.Type, req, resp, err, elapsed)
		if err != nil {
			lastErr = err
			continue
		}
		co.statsMu.Lock()
		co.stats.RoundTrips++
		co.statsMu.Unlock()
		if sp != nil {
			if attempts > 1 {
				sp.SetAttr("attempts", fmt.Sprint(attempts))
			}
			for _, ws := range resp.Spans {
				if sd, err := DecodeSpan(ws); err == nil {
					co.opts.Spans.Tracer().Adopt([]obs.SpanData{sd})
				}
			}
		}
		if !resp.OK {
			err := &RemoteError{Site: site, Msg: resp.Err}
			sp.SetError(err.Error())
			return nil, err
		}
		co.statsMu.Lock()
		co.stats.WireTuples += int64(len(resp.Tuples))
		co.statsMu.Unlock()
		return resp, nil
	}
	err := &SiteError{Site: site, Err: lastErr}
	sp.SetError(err.Error())
	return nil, err
}

// fetch reads the tuples of a placed relation whose column rg.Col lies in
// rg — every tuple when rg bounds nothing — from the sites that own its
// shards. A point on the shard key of a sharded relation is asked of the
// owning shard alone and counts one routed read; any other range is asked of every shard, all
// at once (fanOut), and counts one scatter read of a sharded relation,
// whose read goes under a "shard.route" span. It returns the tuples and
// the largest arity a site reported.
func (co *Coordinator) fetch(rel string, rg relation.Range) ([]relation.Tuple, int, error) {
	shards := co.place[rel].Shards
	i, routed := co.place.owner(rel, rg)
	if routed {
		shards = shards[i : i+1]
	}
	if co.place[rel].Sharded() {
		mode := "scatter"
		if routed {
			mode = "routed"
		}
		defer co.routeSpan(rel, mode).End()
	}
	req := readRequest(rel, rg)
	var ts []relation.Tuple
	var arity int
	var err error
	if len(shards) == 1 {
		// Most reads are one shard's key group: no fan-out to allocate.
		ts, arity, err = co.fetchShard(shards[0].Leader, req)
	} else {
		parts, arities := make([][]relation.Tuple, len(shards)), make([]int, len(shards))
		err = co.fanOut(len(shards), func(i int) (err error) {
			parts[i], arities[i], err = co.fetchShard(shards[i].Leader, req)
			return err
		})
		ts, arity = slices.Concat(parts...), slices.Max(arities)
	}
	if err != nil {
		return nil, 0, err
	}
	switch {
	case routed:
		co.noteRouted(1)
	case len(shards) > 1:
		co.noteScatter(1)
	}
	return ts, arity, nil
}

// fetchShard sends one shard's site its copy of a read and decodes the
// answer.
func (co *Coordinator) fetchShard(site string, req Request) ([]relation.Tuple, int, error) {
	resp, err := co.call(site, &req)
	if err != nil {
		return nil, 0, err
	}
	ts, err := DecodeTuples(resp.Tuples)
	if err != nil {
		return nil, 0, &RemoteError{Site: site, Msg: err.Error()}
	}
	return ts, resp.Arity, nil
}

// refresh makes one read of a decision: the tuples of a placed relation
// in r's range — all of them for a whole read — are fetched and swapped
// into the mirror by store.ReplaceRange, which touches no tuple outside
// the range and moves the relation's data version only when a tuple
// changed, so the mirror is precisely as fresh as the compiled checks'
// probes require and a refresh that finds nothing new invalidates nothing
// derived from the mirror (a kept fixpoint). Shipping the range a check
// probes instead of the whole relation is the paper's "consult as little
// information as the update requires".
func (co *Coordinator) refresh(r mirrorRead) error {
	ts, arity, err := co.fetch(r.rel, r.rg)
	if err != nil {
		return err
	}
	if arity == 0 {
		// Empty, never-used relation: keep the mirror's arity if it already
		// has one, otherwise there is nothing to store.
		m := co.mirror.Relation(r.rel)
		if m == nil {
			return nil
		}
		arity = m.Arity()
	}
	if err := co.mirror.ReplaceRange(r.rel, arity, r.rg, ts); err != nil {
		return &RemoteError{Site: "", Msg: err.Error()}
	}
	return nil
}

// mirrorRead is one refresh a decision needs: the tuples of a placed
// relation whose column rg.Col lies in rg, the whole relation when rg
// bounds nothing.
type mirrorRead struct {
	rel string
	rg  relation.Range
}

// whole reports whether the read is of the whole relation.
func (r mirrorRead) whole() bool { return !r.rg.HasLo && !r.rg.HasHi }

// reads is the union of the refreshes a decision's members need, in the
// order first needed: each range once, and no range of a relation
// refreshed whole.
type reads []mirrorRead

// add notes what the planned member u may read, and returns the number of
// remote relations its plan needs (0: decidable wire-free). It consults
// the read plan of the claims the checker compiled for the update's
// pattern: the ranges compiled checks probe — a key group is a point — are
// refreshed alone, and an unbounded read — of a compiled check, phase 3
// or an evaluation — refreshes the whole relation (and with it every
// range), from every shard at once when it is sharded. A relation no
// claim names is not refreshed: the refresh would write the mirror
// outside the decision's claims.
func (rs *reads) add(co *Coordinator, u store.Update, plan core.PlanReport) int {
	need := 0
	for _, rel := range plan.Relations {
		if _, remote := co.place[rel]; !remote {
			continue
		}
		rp := co.Checker.Footprints().ReadPlan(u, rel)
		switch {
		case rp.Mirror:
			rs.note(mirrorRead{rel: rel})
		case len(rp.Ranges) > 0:
			for _, rg := range rp.Ranges {
				rs.note(mirrorRead{rel: rel, rg: rg})
			}
		default:
			// The residual-aware analysis proves this member's check never
			// reads rel: nothing to refresh, and no wire need.
			continue
		}
		need++
	}
	return need
}

// note adds r unless the set covers it; a whole read replaces the ranges
// of its relation.
func (rs *reads) note(r mirrorRead) {
	for _, e := range *rs {
		if e.rel == r.rel && (e.whole() || e.rg.Equal(r.rg)) {
			return
		}
	}
	if r.whole() {
		*rs = slices.DeleteFunc(*rs, func(e mirrorRead) bool { return e.rel == r.rel })
	}
	*rs = append(*rs, r)
}

// read refreshes the mirror for rs, before any member is decided.
func (co *Coordinator) read(rs reads) error {
	switch len(rs) {
	case 0:
		return nil
	case 1:
		return co.refresh(rs[0])
	}
	return co.fanOut(len(rs), func(i int) error { return co.refresh(rs[i]) })
}

// noteRouted/noteScatter account single-shard-targeted and fan-out reads
// of sharded relations.
func (co *Coordinator) noteRouted(n int) {
	co.statsMu.Lock()
	co.stats.ShardRouted += n
	co.statsMu.Unlock()
}

func (co *Coordinator) noteScatter(n int) {
	co.statsMu.Lock()
	co.stats.ShardScatter += n
	co.statsMu.Unlock()
}

// routeSpan opens a "shard.route" child span under the active trace (nil
// when tracing is off or idle).
func (co *Coordinator) routeSpan(rel, mode string) *obs.Span {
	parent := co.opts.Spans.Active()
	if parent == nil {
		return nil
	}
	sp := co.opts.Spans.Tracer().StartChild(parent, "shard.route")
	sp.SetAttr("relation", rel)
	sp.SetAttr("mode", mode)
	return sp
}

// Apply pushes one update through the pipeline: ApplyBatch of one. When
// the update's plan needs remote data that cannot be fetched, or its
// owning shard cannot take its write, it returns an error matching
// ErrSiteUnavailable and the database is untouched; updates decidable
// from local information commit regardless of site health.
func (co *Coordinator) Apply(u store.Update) (core.Report, error) { return co.one(u, true) }

// Check decides one update without committing anything: remote relations
// its plan needs are refreshed, the checker decides, and mirror and sites
// are untouched whatever the verdict.
func (co *Coordinator) Check(u store.Update) (core.Report, error) { return co.one(u, false) }

// one is Apply (commit) and Check (!commit): decide for a batch of one,
// its update, plan and report on the caller's stack.
func (co *Coordinator) one(u store.Update, commit bool) (core.Report, error) {
	us, plans, reps := [1]store.Update{u}, [1]core.PlanReport{co.Checker.Plan(u)}, [1]core.Report{}
	br, err := co.decide(us[:], plans[:], reps[:0], commit)
	if len(br.Reports) == 0 || errors.Is(err, ErrSiteUnavailable) {
		return core.Report{Update: u}, err
	}
	return br.Reports[0], err
}

// propagate applies u at the site owning its shard; unpropagate routes
// the inverse (publish's withdrawal).
func (co *Coordinator) propagate(u store.Update) error {
	rp, ok := co.place[u.Relation]
	if !ok {
		return nil
	}
	site := rp.Shards[0].Leader
	if rp.Sharded() && rp.KeyCol < len(u.Tuple) {
		site = rp.Shards[co.place.ShardOf(u.Relation, u.Tuple[rp.KeyCol])].Leader
	}
	_, err := co.call(site, &Request{
		Type:     OpApply,
		Relation: u.Relation,
		Insert:   u.Insert,
		Tuple:    EncodeTuple(u.Tuple),
	})
	return err
}

func (co *Coordinator) unpropagate(u store.Update) error {
	return co.propagate(store.Update{Relation: u.Relation, Insert: !u.Insert, Tuple: u.Tuple})
}

// ServeBackend adapts a Coordinator to internal/serve's Backend surface
// (satisfied structurally — serve is not imported), so a decision server
// can front a multi-site system. It is an adapter rather than methods on
// Coordinator because the backend's Stats() must return the checker's
// core.Stats while Coordinator.Stats() reports wire accounting.
type ServeBackend struct{ Co *Coordinator }

// Check decides without applying (Coordinator.Check).
func (b ServeBackend) Check(u store.Update) (core.Report, error) { return b.Co.Check(u) }

// Apply decides and, when admitted, applies and propagates.
func (b ServeBackend) Apply(u store.Update) (core.Report, error) { return b.Co.Apply(u) }

// ApplyBatch applies the updates as one atomic transaction.
func (b ServeBackend) ApplyBatch(us []store.Update) (core.BatchReport, error) {
	return b.Co.ApplyBatch(us)
}

// Stats snapshots the wrapped checker's statistics.
func (b ServeBackend) Stats() core.Stats { return b.Co.Checker.Stats() }

// Footprints exposes the wrapped checker's footprint view so a
// pipelined server (serve.Config.ApplyWorkers > 1) can schedule
// coordinator applies concurrently. The coordinator side is safe for
// that discipline: its accounting is mutex-guarded and its transports
// tolerate concurrent round trips.
func (b ServeBackend) Footprints() core.Footprints { return b.Co.Checker.Footprints() }

// ShardStats satisfies serve's optional ShardStatser interface: the
// coordinator's scale-out wire accounting, surfaced through the
// decision server's /stats. The third result is always 0.
func (b ServeBackend) ShardStats() (routed, scatter, _ int) {
	st := b.Co.Stats()
	return st.ShardRouted, st.ShardScatter, 0
}

// noteUnavailable accounts one update refused because a site was
// unreachable, attributing it to the offending site when the error chain
// names one. A RemoteError (site answered, refused) lands here only from
// refresh's decode path and counts site-less.
func (co *Coordinator) noteUnavailable(err error) {
	co.statsMu.Lock()
	co.stats.Unavailable++
	var se *SiteError
	if errors.As(err, &se) {
		co.stats.UnavailableBySite[se.Site]++
	}
	co.statsMu.Unlock()
}

// Report renders the statistics as a small table.
func (co *Coordinator) Report() string {
	st := co.Stats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "updates: %d  rejected: %d  unavailable: %d  decided-locally: %d  local-certified: %d\n",
		st.Updates, st.Rejected, st.Unavailable, st.DecidedLocally, co.Checker.Stats().LocalCertified)
	fmt.Fprintf(&sb, "wire: %d round trips (%d retries), %d tuples, %s on the network\n",
		st.RoundTrips, st.Retries, st.WireTuples, st.NetTime.Round(time.Microsecond))
	if st.ShardRouted+st.ShardScatter > 0 {
		fmt.Fprintf(&sb, "shards: %d routed, %d scatter\n", st.ShardRouted, st.ShardScatter)
	}
	if len(st.RetriesBySite) > 0 {
		fmt.Fprintf(&sb, "retries by site: %s\n", siteCounts(st.RetriesBySite))
	}
	if len(st.UnavailableBySite) > 0 {
		fmt.Fprintf(&sb, "degraded sites: %s\n", siteCounts(st.UnavailableBySite))
	}
	var phases []core.Phase
	for p := range st.ByPhase {
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
	for _, p := range phases {
		fmt.Fprintf(&sb, "  decided by %-12s %d\n", p.String()+":", st.ByPhase[p])
	}
	return sb.String()
}

// siteCounts renders a per-site counter map as "site=count" pairs in
// site order.
func siteCounts(m map[string]int) string {
	sites := make([]string, 0, len(m))
	for s := range m {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	parts := make([]string, len(sites))
	for i, s := range sites {
		parts[i] = fmt.Sprintf("%s=%d", s, m[s])
	}
	return strings.Join(parts, "  ")
}
