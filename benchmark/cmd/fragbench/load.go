package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"syscall"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/txn"
)

// traceSample is the share of window operations a traced run follows
// through submit, loop wait and engine: 1 in traceSample.
const traceSample = 8

// ackBuffer is how many acknowledgements may wait for the generator.
// A done callback runs on a node's loop and must never block it: the
// closed loops have at most 16 outstanding, and the open loop would
// need 16 s of unanswered operations at 4000/s to fill this.
const ackBuffer = 1 << 16

// plan is one run of one workload.
type plan struct {
	w      workload
	seed   int64
	warm   time.Duration
	window time.Duration
	traced bool
}

// opRec is one operation issued inside the measured window. Times are
// run-clock nanoseconds.
type opRec struct {
	opInfo
	due    int64 // when it was due: the issue instant in a closed loop, the schedule's in an open one
	end    int64 // when its commit was acknowledged; 0 if it never was
	ok     bool  // acknowledged as committed
	selfNs int64 // http_mixed: round trip minus the latency_ms the node reported
}

// opStamps follows one traced in-process operation into the node.
type opStamps struct {
	rec       int    // index into loadOut.ops
	id        txn.ID // zero for forwarded operations
	submitted int64  // Node.Do returned
	loopRan   int64  // a no-op injected just ahead of the operation ran on the loop
}

// loadOut is everything a driver measured.
type loadOut struct {
	ops     []opRec
	acked   tally            // every acknowledged commit, warm-up included
	commits int              // size of acked
	doneAt  map[txn.ID]int64 // sampled transactions: when the home node's done callback ran
	late    []int64          // open loop: how long after its due time each window op was issued
	traces  []opStamps

	ws, we        int64 // measured window
	before, after counters

	// The process row: CPU the cluster used (this process over the
	// window; the hanode children over their life), live heap once the
	// load has stopped, and how long the replicas took to catch up then.
	cpu             time.Duration
	heapMB, drainMS float64

	heals        []heal
	droppedInCut uint64 // sends the transports dropped while node 0 was cut off
}

// heal is one reconnection of node 0: the instant, and when every
// replica held everything committed anywhere before it (0: never).
type heal struct{ at, caughtUp int64 }

// processCPU is the user plus system time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ack is a done callback's message to the generator goroutine, which
// alone touches the records.
type ack struct {
	rec int // index into ops; -1 for a warm-up operation
	opInfo
	ok bool
	at int64
	id txn.ID
	st *opStamps
}

// driveInproc runs the plan's load against an in-process cluster from
// this one goroutine: a closed loop keeps w.inflight Node.Do calls
// outstanding, an open loop issues on the fixed schedule start+i/rate
// however the cluster is doing. Warm-up and window are one continuous
// stream; only operations due inside the window are recorded.
func driveInproc(ctx context.Context, c *inproc, p plan, clk clock) loadOut {
	out := loadOut{doneAt: make(map[txn.ID]int64)}
	s := &opStream{rng: rand.New(rand.NewSource(p.seed)), mix: p.w.mix,
		remoteBump: p.w.remoteBump, readLocks: p.w.option == "read-locks"}
	acks := make(chan ack, ackBuffer)
	outstanding := 0
	absorb := func(a ack) {
		outstanding--
		if a.ok {
			out.acked.add(a.opInfo)
			out.commits++
		}
		if a.rec < 0 {
			return
		}
		r := &out.ops[a.rec]
		r.end, r.ok = a.at, a.ok
		if a.ok && a.id != txn.Zero && sampled(a.id) {
			out.doneAt[a.id] = a.at
		}
		if a.st != nil {
			a.st.id = a.id
			out.traces = append(out.traces, *a.st)
		}
	}
	absorbWaiting := func() {
		for {
			select {
			case a := <-acks:
				absorb(a)
			default:
				return
			}
		}
	}

	start := clk.now()
	out.ws = start + int64(p.warm)
	out.we = out.ws + int64(p.window)
	var (
		inWindow bool
		cpu0     time.Duration
		cuts     = p.w.cuts // those still to come; cuts[0] is in force while isolated
		isolated bool
		dropped0 uint64
		caughtUp []chan int64
		perOpNs  = 1e9 / p.w.rate
	)
	for i := 0; ; i++ {
		var due int64
		if p.w.rate > 0 {
			due = start + int64(float64(i)*perOpNs)
			for now := clk.now(); now < due; now = clk.now() {
				absorbWaiting()
				time.Sleep(time.Duration(due - now))
			}
		} else {
			for outstanding >= p.w.inflight {
				absorb(<-acks)
			}
			due = clk.now()
		}
		if due >= out.we || ctx.Err() != nil {
			break
		}
		if !inWindow && due >= out.ws {
			inWindow = true
			out.before, cpu0 = c.counters(), processCPU()
		}
		if len(cuts) > 0 && !isolated && due >= out.ws+int64(cuts[0][0]*float64(p.window)) {
			isolated = true
			dropped0 = c.sendDropped()
			c.isolate(true)
		}
		if isolated && due >= out.ws+int64(cuts[0][1]*float64(p.window)) {
			isolated, cuts = false, cuts[1:]
			c.isolate(false)
			out.heals = append(out.heals, heal{at: clk.now()})
			out.droppedInCut += c.sendDropped() - dropped0
			front := c.frontier()
			done := make(chan int64, 1)
			caughtUp = append(caughtUp, done)
			go func() {
				if poll(ctx, 500*time.Microsecond, func() bool { return c.caughtUp(front) }) {
					done <- clk.now()
				} else {
					done <- 0
				}
			}()
		}

		g := s.next()
		rec := -1
		var st *opStamps
		nd := c.nodes[g.node]
		if inWindow {
			rec = len(out.ops)
			out.ops = append(out.ops, opRec{opInfo: g.opInfo, due: due})
			if p.w.rate > 0 {
				out.late = append(out.late, clk.now()-due)
			}
			if p.traced && rec%traceSample == 0 {
				st = &opStamps{rec: rec}
				// Runs on the loop right before the operation's own
				// closure: when it runs, the operation's loop wait is over.
				nd.Loop.Inject(func() { st.loopRan = clk.now() })
			}
		}
		info := g.opInfo
		err := nd.Do(g.op, func(r core.TxnResult) {
			acks <- ack{rec: rec, opInfo: info, ok: r.Committed, at: clk.now(), id: r.ID, st: st}
		})
		if err != nil {
			continue // recorded as never acknowledged
		}
		if st != nil {
			st.submitted = clk.now()
		}
		outstanding++
	}
	deadline := time.After(settleTimeout)
	for outstanding > 0 {
		select {
		case a := <-acks:
			absorb(a)
		case <-deadline:
			outstanding = 0 // the rest stay recorded as never acknowledged
		}
	}
	out.after, out.cpu = c.counters(), processCPU()-cpu0
	for i, done := range caughtUp {
		out.heals[i].caughtUp = <-done
	}
	return out
}

// driveHTTP runs the closed loop of http_mixed: w.clients goroutines,
// each with one keep-alive connection per node and its own seeded
// stream, each posting its next operation when the previous reply has
// arrived and rotating over the three nodes.
func driveHTTP(ctx context.Context, c *httpCluster, p plan, clk clock) (loadOut, error) {
	var out loadOut
	start := clk.now()
	out.ws = start + int64(p.warm)
	out.we = out.ws + int64(p.window)
	parts := make([]loadOut, p.w.clients)
	var wg sync.WaitGroup
	for cl := range parts {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			part := &parts[cl]
			s := &opStream{rng: rand.New(rand.NewSource(p.seed + int64(cl))), mix: p.w.mix, rotate: cl}
			for {
				due := clk.now()
				if due >= out.we || ctx.Err() != nil {
					return
				}
				g := s.next()
				body, _ := json.Marshal(g.op) // a struct of strings and integers cannot fail
				reply, err := c.post(int(g.node), body)
				end := clk.now()
				ok := err == nil && reply.Committed
				if ok {
					part.acked.add(g.opInfo)
					part.commits++
				}
				if due >= out.ws {
					part.ops = append(part.ops, opRec{opInfo: g.opInfo, due: due, end: end, ok: ok,
						selfNs: end - due - int64(reply.LatencyMS*1e6)})
				}
			}
		}(cl)
	}
	select {
	case <-time.After(time.Duration(out.ws - clk.now())):
	case <-ctx.Done():
	}
	before, err := c.counters()
	if err != nil {
		wg.Wait()
		return out, err
	}
	wg.Wait()
	out.before = before
	if out.after, err = c.counters(); err != nil {
		return out, err
	}
	for _, part := range parts {
		out.ops = append(out.ops, part.ops...)
		out.acked.merge(part.acked)
		out.commits += part.commits
	}
	return out, nil
}
