package main

// sloMS is the latency limit behind within_slo_share: an operation
// counts only if its commit is acknowledged within this many
// milliseconds of its issue (closed loop) or due time (open loop).
const sloMS = 5.0

// workload is one fixed load shape. Nothing here scales with the
// machine: client counts, in-flight counts and rates are constants, so
// a parent commit and a change always see the same offered load.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	http   bool   // spawned hanode processes behind POST /tx, else in-process deploy nodes
	option string // control option; "" is hanode's default, unrestricted
	mix    []opKind

	clients  int     // http closed loop: keep-alive clients, one request in flight each
	inflight int     // in-process closed loop: Node.Do calls in flight from the one generator
	rate     float64 // in-process open loop: operations per second, cluster-wide

	remoteBump bool         // every bump targets the successor node's counter
	cuts       [][2]float64 // node 0 is cut off during each of these [from, to) shares of the window
}

// mixA2 is the operation mix of EXPERIMENTS.md's A2 and haload's
// default: 40 % deposits, 40 % withdrawals, 10 % bumps, 10 % enqueues.
var mixA2 = mixTable(4, 4, 1, 1)

var workloads = []workload{
	{
		name: "http_mixed",
		why:  "the only path through cmd/hanode's HTTP+JSON ingest: 2 keep-alive clients, closed loop, loops mostly idle, so ingest and idle-loop wake set the latency",
		http: true, mix: mixA2, clients: 2,
	},
	{
		name: "direct_mixed",
		why:  "bypasses ingest: 4 Node.Do in flight, closed loop, so loop, lock, commit, broadcast, wire, TCP and replica apply do all the work and the network is only on the replication path",
		mix:  mixA2, inflight: 4,
	},
	{
		name:   "direct_remote",
		why:    "read-locks with every bump forwarded to the successor node, 16 in flight: puts the network, remote locks and gob-fallback wire types on the blocking path",
		option: "read-locks", mix: mixTable(4, 4, 2, 0), inflight: 16, remoteBump: true,
	},
	{
		name: "partition_heal",
		why:  "open loop at 2000 ops/s while node 0 is cut off five times, for 6 % of the window each: commits must ride through the cuts and anti-entropy must catch the replicas up after each heal",
		mix:  mixA2, rate: 2000, cuts: [][2]float64{{0.05, 0.11}, {0.25, 0.31}, {0.45, 0.51}, {0.65, 0.71}, {0.85, 0.91}},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int    // samples behind it, where that means something
	Layer string // module it describes; "" for an end-to-end metric
	Note  string // printed next to it
}

// result is the outcome of one run.
type result struct {
	workload  string
	seed      int64
	traced    bool
	window    float64 // seconds
	attempted int
	failed    int
	checkErr  error // nil when the replica-state check passed
	metrics   []metric
}

func (r *result) add(layer, name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: value, N: n, Layer: layer})
}

func (r *result) find(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
