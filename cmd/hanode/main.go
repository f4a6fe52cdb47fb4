// Command hanode runs one node of a deployed fragdb cluster: one
// engine over the real TCP transport, plus an HTTP side
// door for clients and operators.
//
//	hanode -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -http 127.0.0.1:8000
//
// Every process of a cluster must be started with the same -peers,
// -option, -accounts, and -seed so they derive the identical schema.
//
// HTTP endpoints:
//
//	POST /tx            submit one operation (JSON: kind, account,
//	                    amount, item) and wait for its outcome
//	GET  /metrics       Prometheus text: engine counters, latency
//	                    histograms, broadcast gauges, the labeled
//	                    per-fragment registry (frag_*_total, frag_info),
//	                    and Go runtime gauges (goroutines, heap, GC)
//	GET  /trace         flight-recorder tail (JSON; ?n=M for tail size)
//	GET  /healthz       node id, option, and per-peer connectivity
//	GET  /state         local view: balances, counter total, queue length
//	POST /admin/drop    ?peer=N&drop=1|0 — install or clear a partition
//	                    drop rule on the transport (fault injection)
//	GET  /admin/placement  adaptive placement controller snapshot: the
//	                    decayed access-rate matrix, in-flight moves, and
//	                    migration history (404 unless -placement)
//	GET  /debug/pprof/  Go pprof profiles (heap, goroutine, profile, ...)
//
// With -placement the node runs the adaptive placement controller on
// its own scheduler every -placement-interval: it moves the commutative
// counter and queue agents homed here toward the node their writes
// come from, reading the rates from its own per-fragment registry (a
// home executes every write to its fragments, labelled with the
// writer's origin).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/deploy"
	"fragdb/internal/netsim"
	"fragdb/internal/rtnet"
	"fragdb/internal/workload"
)

func main() {
	var (
		id         = flag.Int("id", -1, "this node's index into -peers (required)")
		peers      = flag.String("peers", "", "comma-separated host:port of every node, in node-id order (required)")
		httpAddr   = flag.String("http", "", "client/debug HTTP listen address (required)")
		option     = flag.String("option", "unrestricted", "control option: unrestricted, read-locks, or acyclic-reads")
		accounts   = flag.Int("accounts", 0, "number of bank accounts (default 2 per node)")
		seed       = flag.Int64("seed", 1, "scheduler seed")
		majority   = flag.Bool("majority", false, "enable majority commit for non-commutative transactions")
		txnTimeout = flag.Duration("txntimeout", 0, "transaction timeout (default 2s)")
		traceCap   = flag.Int("trace", 0, "flight-recorder ring size in events (default 4096; negative disables)")
		plEnable   = flag.Bool("placement", false, "run the adaptive placement controller (commutative fragments only)")
		plInterval = flag.Duration("placement-interval", 2*time.Second, "placement decision period")
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if *peers == "" || *id < 0 || *id >= len(addrs) || *httpAddr == "" {
		flag.Usage()
		os.Exit(2)
	}
	node, err := deploy.NewTCP(deploy.Config{
		ID:             *id,
		Addrs:          addrs,
		Option:         *option,
		Accounts:       *accounts,
		Seed:           *seed,
		MajorityCommit: *majority,
		TxnTimeout:     *txnTimeout,
		TraceCap:       *traceCap,
	})
	if err != nil {
		log.Fatalf("hanode: %v", err)
	}
	defer node.Close()

	var pl *deploy.Placement
	if *plEnable {
		if pl, err = node.StartPlacement(*plInterval); err != nil {
			log.Fatalf("hanode: placement: %v", err)
		}
	}

	mux := http.NewServeMux()
	debug := rtnet.NewDebugHandler(node.DebugVars())
	mux.Handle("/metrics", debug)
	mux.Handle("/trace", debug)
	mux.HandleFunc("/tx", func(w http.ResponseWriter, r *http.Request) { serveTx(w, r, node) })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { serveHealth(w, node, *option) })
	mux.HandleFunc("/state", func(w http.ResponseWriter, r *http.Request) { serveState(w, node) })
	mux.HandleFunc("/admin/drop", func(w http.ResponseWriter, r *http.Request) { serveDrop(w, r, node) })
	mux.HandleFunc("/admin/placement", func(w http.ResponseWriter, r *http.Request) { servePlacement(w, pl) })
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Addr: *httpAddr, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("hanode: http: %v", err)
		}
	}()
	log.Printf("hanode %d up: engine on %s, http on %s, option %s",
		*id, addrs[*id], *httpAddr, *option)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("hanode %d: shutting down", *id)
	srv.Close()
}

// txResponse is the outcome of one submitted operation.
type txResponse struct {
	Committed bool    `json:"committed"`
	Err       string  `json:"err,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
}

// maxTxBody caps a /tx request body. An operation encodes in under
// 200 bytes; the cap only keeps a client from making the node buffer
// an arbitrary stream.
const maxTxBody = 64 << 10

// serveTx submits the posted operation and waits for its outcome. The
// done callback runs on the loop goroutine; the buffered channel keeps
// it from ever blocking the engine on a slow client.
func serveTx(w http.ResponseWriter, r *http.Request, node *deploy.Node) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var op deploy.Op
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTxBody)).Decode(&op); err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad op: "+err.Error(), status)
		return
	}
	start := time.Now()
	done := make(chan core.TxnResult, 1)
	if err := node.Do(op, func(res core.TxnResult) { done <- res }); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, deploy.ErrLoopStopped) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	res := <-done
	resp := txResponse{Committed: res.Committed, LatencyMS: float64(time.Since(start)) / float64(time.Millisecond)}
	if res.Err != nil {
		resp.Err = res.Err.Error()
	}
	// One reply per commit: compact, unlike the endpoints people read.
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp) // a failed write means the client went away
}

// serveHealth reports the node's identity and its view of peer
// connectivity.
func serveHealth(w http.ResponseWriter, node *deploy.Node, option string) {
	type peerHealth struct {
		ID        int    `json:"id"`
		Addr      string `json:"addr"`
		Connected bool   `json:"connected"`
	}
	local := netsim.NodeID(node.Cfg.ID)
	out := struct {
		ID     int          `json:"id"`
		Option string       `json:"option"`
		Peers  []peerHealth `json:"peers"`
	}{ID: node.Cfg.ID, Option: option}
	for i, addr := range node.Cfg.Addrs {
		if i == node.Cfg.ID {
			continue
		}
		out.Peers = append(out.Peers, peerHealth{
			ID: i, Addr: addr,
			Connected: node.TCP.Reachable(local, netsim.NodeID(i)),
		})
	}
	writeJSON(w, out)
}

// serveState renders the node's local replica view, read on the loop
// goroutine.
func serveState(w http.ResponseWriter, node *deploy.Node) {
	local := netsim.NodeID(node.Cfg.ID)
	accounts := node.Cfg.Accounts
	if accounts <= 0 {
		accounts = 2 * len(node.Cfg.Addrs)
	}
	out := struct {
		ID       int              `json:"id"`
		Balances map[string]int64 `json:"balances"`
		Counter  int64            `json:"counter"`
		QueueLen int              `json:"queue_len"`
	}{ID: node.Cfg.ID, Balances: make(map[string]int64)}
	err := node.Inspect(func() {
		for i := 0; i < accounts; i++ {
			acct := workload.LiveAccount(i)
			out.Balances[acct] = node.Live.Balance(local, acct)
		}
		out.Counter = node.Live.CounterTotal(local)
		out.QueueLen = node.Live.QueueLen(local)
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, out)
}

// servePlacement snapshots the adaptive placement controller: its
// tuning, the decayed access-rate matrix, in-flight and historical
// migrations.
func servePlacement(w http.ResponseWriter, pl *deploy.Placement) {
	if pl == nil {
		http.Error(w, "placement controller not enabled (start with -placement)", http.StatusNotFound)
		return
	}
	st, err := pl.Status()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, st)
}

// serveDrop toggles a partition drop rule against one peer.
func serveDrop(w http.ResponseWriter, r *http.Request, node *deploy.Node) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	peer, err := strconv.Atoi(r.URL.Query().Get("peer"))
	if err != nil || peer < 0 || peer >= len(node.Cfg.Addrs) {
		http.Error(w, "bad peer", http.StatusBadRequest)
		return
	}
	drop := r.URL.Query().Get("drop") == "1" || r.URL.Query().Get("drop") == "true"
	if err := node.SetPeerDrop(peer, drop); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "peer %d drop=%v\n", peer, drop)
}

// writeJSON renders an indented reply for the endpoints read by people
// and scripts (/state, /healthz, /admin/*).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
