package fragdb_test

// The benchmark harness: one benchmark per experiment in DESIGN.md's
// index (each regenerating a paper figure/scenario end to end), plus
// ablation micro-benchmarks for the design choices the core engine
// makes (quasi-transaction propagation, broadcast repair, lock manager,
// serialization-graph checking).
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"testing"
	"time"

	"fragdb"
	"fragdb/internal/exp"
	"fragdb/internal/fragments"
	"fragdb/internal/history"
	"fragdb/internal/lock"
	"fragdb/internal/txn"
)

// benchExperiment runs one experiment per iteration and fails the
// benchmark if its shape stops matching the paper.
func benchExperiment(b *testing.B, run exp.Runner) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := run(int64(i) + 1)
		if !r.Pass {
			b.Fatalf("%s stopped matching the paper:\n%s", r.ID, r.Table())
		}
	}
}

func BenchmarkE1Spectrum(b *testing.B)  { benchExperiment(b, exp.RunE1) }
func BenchmarkE2Scenario1(b *testing.B) { benchExperiment(b, exp.RunE2) }
func BenchmarkE3Scenario2(b *testing.B) { benchExperiment(b, exp.RunE3) }
func BenchmarkE4LocalView(b *testing.B) { benchExperiment(b, exp.RunE4) }
func BenchmarkE5Warehouse(b *testing.B) { benchExperiment(b, exp.RunE5) }
func BenchmarkE6CyclicGSG(b *testing.B) { benchExperiment(b, exp.RunE6) }
func BenchmarkE7Airline(b *testing.B)   { benchExperiment(b, exp.RunE7) }
func BenchmarkE8Movement(b *testing.B)  { benchExperiment(b, exp.RunE8) }
func BenchmarkE9Theorem(b *testing.B)   { benchExperiment(b, exp.RunE9) }
func BenchmarkE10Overhead(b *testing.B) { benchExperiment(b, exp.RunE10) }
func BenchmarkA1Severity(b *testing.B)  { benchExperiment(b, exp.RunA1) }

// --- ablation micro-benchmarks ----------------------------------------

// BenchmarkTxnThroughput measures end-to-end update transactions per
// second of virtual processing on a healthy 3-node cluster, for each
// control option — the cost of the option mechanisms themselves.
func BenchmarkTxnThroughput(b *testing.B) {
	for _, opt := range []fragdb.ControlOption{
		fragdb.ReadLocks, fragdb.AcyclicReads, fragdb.UnrestrictedReads,
	} {
		b.Run(opt.String(), func(b *testing.B) {
			b.ReportAllocs()
			cl := fragdb.NewCluster(fragdb.Config{N: 3, Option: opt, Seed: 1})
			cl.Catalog().AddFragment("F0", "x0")
			cl.Catalog().AddFragment("F1", "x1")
			cl.Tokens().Assign("F0", fragdb.NodeAgent(0), 0)
			cl.Tokens().Assign("F1", fragdb.NodeAgent(1), 1)
			cl.DeclareRead("F0", "F1")
			if err := cl.Start(); err != nil {
				b.Fatal(err)
			}
			cl.Load("x0", int64(0))
			cl.Load("x1", int64(0))
			defer cl.Shutdown()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done := false
				cl.Node(0).Submit(fragdb.TxnSpec{
					Agent: fragdb.NodeAgent(0), Fragment: "F0",
					Program: func(tx *fragdb.Tx) error {
						if _, err := tx.ReadInt("x1"); err != nil {
							return err
						}
						v, err := tx.ReadInt("x0")
						if err != nil {
							return err
						}
						return tx.Write("x0", v+1)
					},
				}, func(r fragdb.TxnResult) {
					if !r.Committed {
						b.Fatalf("txn failed: %v", r.Err)
					}
					done = true
				})
				cl.RunFor(time.Second)
				if !done {
					b.Fatal("txn did not complete")
				}
			}
		})
	}
}

// BenchmarkQuasiPropagation measures the full commit-and-replicate path
// for clusters of increasing size: a burst of updates committed
// back-to-back, all replicas installed. "msgs-per-quasi" is the network
// messages the burst cost divided by its size.
func BenchmarkQuasiPropagation(b *testing.B) {
	const burst = 16
	for _, n := range []int{3, 5, 9, 17} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			cl := fragdb.NewCluster(fragdb.Config{N: n, Option: fragdb.UnrestrictedReads, Seed: 1})
			// Distinct objects so the burst commits concurrently instead
			// of deadlocking on one record.
			objs := make([]fragdb.ObjectID, burst)
			for j := range objs {
				objs[j] = fragdb.ObjectID(fmt.Sprintf("x%d", j))
			}
			cl.Catalog().AddFragment("F", objs...)
			cl.Tokens().Assign("F", fragdb.NodeAgent(0), 0)
			if err := cl.Start(); err != nil {
				b.Fatal(err)
			}
			for _, o := range objs {
				cl.Load(o, int64(0))
			}
			defer cl.Shutdown()
			var msgs float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := cl.Net().Stats().Sent
				for j := 0; j < burst; j++ {
					obj := objs[j]
					cl.Node(0).Submit(fragdb.TxnSpec{
						Agent: fragdb.NodeAgent(0), Fragment: "F",
						Program: func(tx *fragdb.Tx) error {
							v, err := tx.ReadInt(obj)
							if err != nil {
								return err
							}
							return tx.Write(obj, v+1)
						},
					}, nil)
				}
				if !cl.Settle(time.Minute) { // commit + full propagation
					b.Fatal("did not converge")
				}
				msgs += float64(cl.Net().Stats().Sent - before)
			}
			b.ReportMetric(msgs/float64(b.N)/burst, "msgs-per-quasi")
		})
	}
}

// BenchmarkPartitionRepair measures anti-entropy catch-up: a burst of
// updates during a partition, then heal-to-convergence.
func BenchmarkPartitionRepair(b *testing.B) {
	for _, burst := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl := fragdb.NewCluster(fragdb.Config{N: 3, Option: fragdb.UnrestrictedReads, Seed: int64(i)})
				cl.Catalog().AddFragment("F", "x")
				cl.Tokens().Assign("F", fragdb.NodeAgent(0), 0)
				if err := cl.Start(); err != nil {
					b.Fatal(err)
				}
				cl.Load("x", int64(0))
				cl.Net().Partition([]fragdb.NodeID{0, 1}, []fragdb.NodeID{2})
				for j := 0; j < burst; j++ {
					cl.Node(0).Submit(fragdb.TxnSpec{
						Agent: fragdb.NodeAgent(0), Fragment: "F",
						Program: func(tx *fragdb.Tx) error {
							v, err := tx.ReadInt("x")
							if err != nil {
								return err
							}
							return tx.Write("x", v+1)
						},
					}, nil)
					cl.RunFor(10 * time.Millisecond)
				}
				cl.Net().Heal()
				if !cl.Settle(5 * time.Minute) {
					b.Fatal("did not converge")
				}
				cl.Shutdown()
			}
		})
	}
}

// BenchmarkRepairAfterHeal measures catch-up cost as a function of the
// missed suffix with broadcast compaction on: a replica partitioned
// away while the survivors commit `missed` updates, then healed to
// convergence. Small misses repair from the retained tail; misses past
// the horizon go through snapshot transfer plus tail. Either way the
// virtual time to converge should grow with the miss, not with total
// history. "msgs-after-heal" counts the network messages
// heal-to-convergence cost.
func BenchmarkRepairAfterHeal(b *testing.B) {
	for _, missed := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("missed=%d", missed), func(b *testing.B) {
			b.ReportAllocs()
			var totalVirtual time.Duration
			var msgs float64
			for i := 0; i < b.N; i++ {
				cl := fragdb.NewCluster(fragdb.Config{
					N: 3, Option: fragdb.UnrestrictedReads, Seed: int64(i + 1),
					Compaction: true, CompactRetain: 16,
				})
				cl.Catalog().AddFragment("F", "x")
				cl.Tokens().Assign("F", fragdb.NodeAgent(0), 0)
				if err := cl.Start(); err != nil {
					b.Fatal(err)
				}
				cl.Load("x", int64(0))
				cl.Net().Partition([]fragdb.NodeID{0, 1}, []fragdb.NodeID{2})
				for j := 0; j < missed; j++ {
					cl.Node(0).Submit(fragdb.TxnSpec{
						Agent: fragdb.NodeAgent(0), Fragment: "F",
						Program: func(tx *fragdb.Tx) error {
							v, err := tx.ReadInt("x")
							if err != nil {
								return err
							}
							return tx.Write("x", v+1)
						},
					}, nil)
					cl.RunFor(10 * time.Millisecond)
				}
				healAt := cl.Now()
				sentAtHeal := cl.Net().Stats().Sent
				cl.Net().Heal()
				if !cl.Settle(5 * time.Minute) {
					b.Fatal("did not converge")
				}
				totalVirtual += time.Duration(cl.Now().Sub(healAt))
				msgs += float64(cl.Net().Stats().Sent - sentAtHeal)
				cl.Shutdown()
			}
			b.ReportMetric(float64(totalVirtual.Nanoseconds())/float64(b.N)/1e6,
				"virtual-ms-to-converge")
			b.ReportMetric(msgs/float64(b.N), "msgs-after-heal")
		})
	}
}

// BenchmarkBroadcastMemory measures what the broadcast layer retains
// after a long, fully-acked update history: summed log entries across
// all replicas (custom metric "log-entries") and their encoded bytes
// ("log-bytes"). With compaction off, both grow linearly with history;
// with compaction on they stay at the retention slack as history grows
// 10x — the memory bound the tentpole claims.
func BenchmarkBroadcastMemory(b *testing.B) {
	for _, compact := range []bool{false, true} {
		for _, hist := range []int{100, 1000} {
			b.Run(fmt.Sprintf("compaction=%v/history=%d", compact, hist), func(b *testing.B) {
				b.ReportAllocs()
				var entries, bytes float64
				for i := 0; i < b.N; i++ {
					cl := fragdb.NewCluster(fragdb.Config{
						N: 3, Option: fragdb.UnrestrictedReads, Seed: int64(i + 1),
						Compaction: compact, CompactRetain: 32,
					})
					cl.Catalog().AddFragment("F", "x")
					cl.Tokens().Assign("F", fragdb.NodeAgent(0), 0)
					if err := cl.Start(); err != nil {
						b.Fatal(err)
					}
					cl.Load("x", int64(0))
					for j := 0; j < hist; j++ {
						cl.Node(0).Submit(fragdb.TxnSpec{
							Agent: fragdb.NodeAgent(0), Fragment: "F",
							Program: func(tx *fragdb.Tx) error {
								v, err := tx.ReadInt("x")
								if err != nil {
									return err
								}
								return tx.Write("x", v+1)
							},
						}, nil)
						cl.RunFor(10 * time.Millisecond)
					}
					if !cl.Settle(5 * time.Minute) {
						b.Fatal("did not converge")
					}
					// A few quiet gossip rounds so the watermark catches the
					// final acks before we freeze the gauges.
					cl.RunFor(2 * time.Second)
					total := 0
					for n := 0; n < 3; n++ {
						total += cl.Node(fragdb.NodeID(n)).Broadcaster().LogSize()
					}
					entries += float64(total)
					bytes += float64(cl.BroadcastStats().LogBytes.Load())
					cl.Shutdown()
				}
				b.ReportMetric(entries/float64(b.N), "log-entries")
				b.ReportMetric(bytes/float64(b.N), "log-bytes")
			})
		}
	}
}

// BenchmarkGossipInterval is the anti-entropy ablation: virtual
// convergence time after a partition as a function of the gossip
// period. Reported as ns/op of simulated (virtual) time via a custom
// metric, it shows the linear dependence of repair latency on the
// anti-entropy period — the design's one tunable.
func BenchmarkGossipInterval(b *testing.B) {
	for _, gossip := range []time.Duration{20 * time.Millisecond, 80 * time.Millisecond, 320 * time.Millisecond} {
		b.Run(fmt.Sprintf("gossip=%v", gossip), func(b *testing.B) {
			var totalVirtual time.Duration
			for i := 0; i < b.N; i++ {
				cl := fragdb.NewCluster(fragdb.Config{
					N: 3, Option: fragdb.UnrestrictedReads, Seed: int64(i),
					GossipInterval: gossip,
				})
				cl.Catalog().AddFragment("F", "x")
				cl.Tokens().Assign("F", fragdb.NodeAgent(0), 0)
				if err := cl.Start(); err != nil {
					b.Fatal(err)
				}
				cl.Load("x", int64(0))
				cl.Net().Partition([]fragdb.NodeID{0, 1}, []fragdb.NodeID{2})
				cl.Node(0).Submit(fragdb.TxnSpec{
					Agent: fragdb.NodeAgent(0), Fragment: "F",
					Program: func(tx *fragdb.Tx) error { return tx.Write("x", int64(1)) },
				}, nil)
				cl.RunFor(50 * time.Millisecond)
				healAt := cl.Now()
				cl.Net().Heal()
				if !cl.Settle(5 * time.Minute) {
					b.Fatal("did not converge")
				}
				totalVirtual += time.Duration(cl.Now().Sub(healAt))
				cl.Shutdown()
			}
			b.ReportMetric(float64(totalVirtual.Nanoseconds())/float64(b.N)/1e6,
				"virtual-ms-to-converge")
		})
	}
}

// BenchmarkLockManager measures the raw lock-table hot path.
func BenchmarkLockManager(b *testing.B) {
	b.ReportAllocs()
	m := lock.NewManager()
	objs := make([]fragdb.ObjectID, 64)
	for i := range objs {
		objs[i] = fragdb.ObjectID(fmt.Sprintf("o%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := txn.ID{Origin: 0, Seq: uint64(i)}
		for j := 0; j < 8; j++ {
			m.Acquire(id, objs[(i+j)%64], lock.Shared)
		}
		m.Acquire(id, objs[i%64], lock.Exclusive)
		m.Release(id)
	}
}

// BenchmarkSerializationGraph measures checker cost as history length
// grows (the audit is part of the library, so its cost matters).
func BenchmarkSerializationGraph(b *testing.B) {
	for _, txns := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("txns=%d", txns), func(b *testing.B) {
			b.ReportAllocs()
			cat := newBenchCatalog()
			rec := history.NewRecorder(cat)
			for i := 0; i < txns; i++ {
				f := fragdb.FragmentID(fmt.Sprintf("F%d", i%4))
				obj := fragdb.ObjectID(fmt.Sprintf("f%d/x", i%4))
				other := fragdb.ObjectID(fmt.Sprintf("f%d/x", (i+1)%4))
				rec.Record(history.TxnRecord{
					ID:   txn.ID{Origin: fragdb.NodeID(i % 4), Seq: uint64(i)},
					Type: f, UpdateFragment: f,
					Pos:    txn.FragPos{Seq: uint64(i/4 + 1)},
					Writes: []fragdb.ObjectID{obj},
					Reads: []history.ReadObs{{
						Object: other,
						Pos:    txn.FragPos{Seq: uint64(i / 8)},
					}},
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := rec.GlobalGraph(history.Options{})
				_ = g.FindCycle()
			}
		})
	}
}

func newBenchCatalog() *fragments.Catalog {
	cat := fragments.NewCatalog()
	for i := 0; i < 4; i++ {
		cat.AddFragment(fragdb.FragmentID(fmt.Sprintf("F%d", i)),
			fragdb.ObjectID(fmt.Sprintf("f%d/x", i)))
	}
	return cat
}
