package deploy

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"fragdb/internal/obs"
	"fragdb/internal/placement"
)

// PlacementConfig tunes a deployed node's adaptive placement runner.
type PlacementConfig struct {
	// Interval is the wall-clock decision period (default 2s).
	Interval time.Duration
	// MetricsAddrs lists every node's metrics HTTP address (host:port,
	// in node-id order, own node included): the runner scrapes each
	// peer's /metrics page and diffs successive scrapes into the
	// cluster-wide access-rate matrix. Empty: the runner steers by the
	// local registry alone, which still sees every access to locally
	// homed fragments (updates execute at the home, labeled with their
	// origin).
	MetricsAddrs []string
}

// Placement is a running adaptive placement loop on one deployed node.
// Every node of the cluster runs its own; each decides only about
// agents currently homed locally (the home executes all of a
// fragment's updates, so its view of the matrix is authoritative for
// its own agents, and two nodes can never decide conflicting moves for
// the same agent).
type Placement struct {
	node   *Node
	ctrl   *placement.Controller
	src    *placement.ScrapeSource
	cfg    PlacementConfig
	client *http.Client

	stop chan struct{}
	wg   sync.WaitGroup
}

// StartPlacement attaches the adaptive placement runner to the node.
func (n *Node) StartPlacement(cfg PlacementConfig) *Placement {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	p := &Placement{
		node: n,
		// CommutativeOnly: a deployed node moves agents with the
		// broadcast token handoff, which is only safe for fully
		// commutative fragments.
		ctrl:   placement.NewController(placement.Config{Interval: cfg.Interval, CommutativeOnly: true}),
		src:    placement.NewScrapeSource(),
		cfg:    cfg,
		client: &http.Client{Timeout: 2 * time.Second},
		stop:   make(chan struct{}),
	}
	p.wg.Add(1)
	go p.run()
	return p
}

// Stop halts the runner and waits for its goroutine.
func (p *Placement) Stop() {
	close(p.stop)
	p.wg.Wait()
}

func (p *Placement) run() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.Interval)
	defer tick.Stop()
	last := time.Now()
	for {
		select {
		case <-p.stop:
			return
		case now := <-tick.C:
			dt := now.Sub(last).Seconds()
			last = now
			p.tick(dt)
		}
	}
}

// tick runs one decision round: scrape (network IO, off the engine
// loop), then decide and move on the engine loop.
func (p *Placement) tick(dtSeconds float64) {
	var inst map[placement.Key]placement.Rate
	if len(p.cfg.MetricsAddrs) > 0 {
		inst = p.src.Observe(p.scrape(), dtSeconds)
	}
	p.node.Loop.Inject(func() {
		cl := p.node.Live.Cluster()
		local := p.node.local
		// Only locally homed agents are this node's to move.
		var agents []placement.AgentInfo
		for _, a := range placement.Agents(cl) {
			if a.Home == local {
				agents = append(agents, a)
			}
		}
		var decisions []placement.Decision
		if len(p.cfg.MetricsAddrs) > 0 {
			decisions = p.ctrl.TickRates(cl.Now(), inst, agents, cl.Config().N)
		} else {
			decisions = p.ctrl.Tick(cl.Now(), placement.FromRegistry(cl.Registry()),
				agents, cl.Config().N)
		}
		for _, d := range decisions {
			err := cl.Node(local).AnnounceAgentMove(d.Agent, d.To)
			p.ctrl.MoveDone(d, err == nil, cl.Now())
		}
	})
}

// scrape fetches every configured target's /metrics page; targets that
// fail this round are simply absent (their diff baseline is kept).
func (p *Placement) scrape() map[string]obs.Metrics {
	pages := make(map[string]obs.Metrics, len(p.cfg.MetricsAddrs))
	for _, addr := range p.cfg.MetricsAddrs {
		resp, err := p.client.Get(fmt.Sprintf("http://%s/metrics", addr))
		if err != nil {
			continue
		}
		page, err := obs.ParsePromText(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		pages[addr] = page
	}
	return pages
}

// Status snapshots the controller on the engine loop (the
// /admin/placement payload).
func (p *Placement) Status() (placement.Status, error) {
	var st placement.Status
	err := p.node.Inspect(func() { st = p.ctrl.Status() })
	return st, err
}
