package main

import (
	"runtime"
	"strconv"
	"sync"
	"time"
)

// loadName names the load a request was sent under — "closed", or the
// open loop's offered rate — and holds the request span labels, one per
// kind ("check@closed"), so that the hot path builds no strings.
type loadName struct {
	name   string
	labels [len(kindNames)]string
}

func newLoadName(name string) *loadName {
	l := &loadName{name: name}
	for k, kind := range kindNames {
		l.labels[k] = kind + "@" + name
	}
	return l
}

var closedLoad = newLoadName("closed")

// depthEvery: a traced caller reads the queue depth before every
// depthEvery-th request.
const depthEvery = 8

// queueDepthMax is the deepest queue the callers saw since the last call.
func queueDepthMax(cs []*caller) (deepest int) {
	for _, c := range cs {
		deepest = max(deepest, c.depthMax)
		c.depthMax = 0
	}
	return deepest
}

// caller is one client of a served workload: it owns a stream in its own
// key band and sends it through do, which returns whether the update (or
// the whole batch) was admitted and whether the answer was an answer at
// all and the one the generator expects.
type caller struct {
	cyc   *cycle
	do    func(o *op) (admitted, ok bool)
	stamp *spanStamper // set on the HTTP arm: carries the span header
	first []bool       // the first pass's answers, for the oracle
	lat   []float64    // per-request latency of the last pass, ns
	// depth reads the server's queue depth; traced sends sample it (a
	// sampling goroutine on a timer costs the 2-core box several percent).
	depth    func() int
	depthMax int
}

// callerSeed derives caller i's stream seed. Neighbouring run seeds must
// not share streams: with seed+i, ten consecutive seeds would reuse all
// but one caller's stream from run to run and look steadier than they are.
func callerSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) + 1 }

func newCaller(cyc *cycle, do func(*op) (bool, bool)) *caller {
	return &caller{cyc: cyc, do: do, first: make([]bool, len(cyc.ops)), lat: make([]float64, len(cyc.ops))}
}

// streamTotals counts the requests and the decisions of one pass over
// every caller's stream.
func streamTotals(cs []*caller) (requests, decisions int) {
	for _, c := range cs {
		requests += len(c.cyc.ops)
		for i := range c.cyc.ops {
			decisions += c.cyc.ops[i].decisions()
		}
	}
	return requests, decisions
}

// send performs op i, timing it from due (the intended send time; zero
// means now), and records spans when traced. It returns false when the
// request failed.
func (c *caller) send(tr *tracer, traced bool, load *loadName, i int, due time.Time, keep bool) bool {
	o := &c.cyc.ops[i]
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	var req uint64
	var rid, sid uint32
	if traced {
		req, rid = tr.reqs.Add(1), tr.ids.Add(1)
		sid = rid
		if c.stamp != nil {
			sid = tr.ids.Add(1)
			c.stamp.cur = strconv.FormatUint(req, 10) + ":" + strconv.FormatUint(uint64(sid), 10)
		}
		tr.register(o, link{req, sid})
		if i%depthEvery == 0 {
			c.depthMax = max(c.depthMax, c.depth())
		}
	}
	admitted, ok := c.do(o)
	end := time.Now()
	if traced {
		tr.unregister(o)
		tr.record(layRequest, req, 0, rid, load.labels[o.kind], int64(due.Sub(tr.epoch)), int64(end.Sub(tr.epoch)))
		if c.stamp != nil {
			c.stamp.cur = ""
			tr.record(laySDK, req, rid, sid, kindNames[o.kind], int64(start.Sub(tr.epoch)), int64(end.Sub(tr.epoch)))
		}
	}
	if keep {
		c.first[i] = admitted
	}
	c.lat[i] = float64(end.Sub(due))
	return ok
}

// closedLoop has every caller send its whole stream, each waiting for a
// reply before its next request. It returns the failures and the
// elapsed time. keep stores the answers for the oracle (the warm-up).
func closedLoop(cs []*caller, tr *tracer, traced, keep bool) (failed int, elapsed time.Duration) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			bad := 0
			for i := range c.cyc.ops {
				if !c.send(tr, traced, closedLoad, i, time.Time{}, keep) {
					bad++
				}
			}
			mu.Lock()
			failed += bad
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return failed, time.Since(start)
}

// openStats is what the load generator says about one open-loop phase.
type openStats struct {
	failed     int
	lateP99    float64 // how late sends ran, ns
	achieved   float64 // sent rate / offered rate
	backlogMax int     // most requests waiting for a caller at once
	sends      int
	load       string // the phase's name in span labels
}

// sleepSlack is how much earlier than due the pacer stops sleeping and
// starts spinning: on this sandbox time.Sleep overshoots by about a
// millisecond whatever it is asked for.
const sleepSlack = 1500 * time.Microsecond

// openLoop sends every caller's whole stream on a fixed schedule of
// rate requests per second, request k to caller k mod n, regardless of
// how fast replies come back. Latencies are taken from the intended send
// time, so a stall is charged to every request it delays.
func openLoop(cs []*caller, tr *tracer, traced bool, rate float64, load *loadName) openStats {
	n, per := len(cs), len(cs[0].cyc.ops) // streams are equally long
	chans := make([]chan time.Time, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	st := openStats{sends: n * per, load: load.name}
	for i, c := range cs {
		// Room for the caller's whole stream: the pacer never blocks.
		chans[i] = make(chan time.Time, per)
		wg.Add(1)
		go func(c *caller, ch chan time.Time) {
			defer wg.Done()
			bad, k := 0, 0
			for due := range ch {
				if !c.send(tr, traced, load, k, due, false) {
					bad++
				}
				k++
			}
			mu.Lock()
			st.failed += bad
			mu.Unlock()
		}(c, chans[i])
	}
	// The pacer keeps a thread and, while it spins, a processor to itself.
	// Yielding instead (runtime.Gosched) wakes the idle processor on every
	// turn and costs every request about 2 ms here; handing the processor
	// back in a short sleep (nanosleep) makes the pacer queue for one when
	// it wakes. A spinning pacer sends within a few microseconds of the
	// schedule, except when the runtime preempts it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	interval := time.Duration(float64(time.Second) / rate)
	late := make([]float64, st.sends)
	t0 := time.Now().Add(time.Millisecond)
	for k := range late {
		due := t0.Add(time.Duration(k) * interval)
		d := time.Until(due)
		for ; d > 0; d = time.Until(due) {
			if d > sleepSlack {
				time.Sleep(d - sleepSlack)
			}
		}
		late[k] = float64(-d)
		ch := chans[k%n]
		ch <- due
		if b := len(ch); b > st.backlogMax {
			st.backlogMax = b
		}
	}
	paced := time.Since(t0)
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	st.lateP99 = quantile(late, 0.99)
	st.achieved = share(float64(st.sends)/paced.Seconds(), rate)
	return st
}
