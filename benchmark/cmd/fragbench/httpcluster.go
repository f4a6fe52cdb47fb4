package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fragdb/internal/obs"
	app "fragdb/internal/workload"
)

// httpCluster is three spawned hanode processes with default flags.
type httpCluster struct {
	cmds   []*exec.Cmd
	logs   []*bytes.Buffer
	addrs  []string // each node's HTTP host:port
	client *http.Client
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// startHTTP execs one hanode per node; cancelling ctx kills them.
// clients sizes the keep-alive pool: one connection per client per node.
func startHTTP(ctx context.Context, hanode string, clients int) (*httpCluster, error) {
	ports, err := freePorts(2 * nodes)
	if err != nil {
		return nil, fmt.Errorf("reserve ports: %w", err)
	}
	c := &httpCluster{
		addrs: ports[nodes:],
		client: &http.Client{
			Timeout:   settleTimeout,
			Transport: &http.Transport{MaxIdleConns: clients * nodes, MaxIdleConnsPerHost: clients},
		},
	}
	for i := 0; i < nodes; i++ {
		cmd := exec.CommandContext(ctx, hanode, "-id", strconv.Itoa(i),
			"-peers", strings.Join(ports[:nodes], ","), "-http", c.addrs[i])
		log := &bytes.Buffer{}
		cmd.Stderr = log
		if err := cmd.Start(); err != nil {
			c.close()
			return nil, fmt.Errorf("start hanode %d: %w", i, err)
		}
		c.cmds = append(c.cmds, cmd)
		c.logs = append(c.logs, log)
	}
	return c, nil
}

// close stops every hanode and waits until each has ended.
func (c *httpCluster) close() {
	for _, cmd := range c.cmds {
		_ = cmd.Process.Signal(syscall.SIGTERM) // an already-dead child is reaped below
	}
	for _, cmd := range c.cmds {
		exited := make(chan struct{})
		go func() {
			_ = cmd.Wait() // "signal: terminated" is the expected outcome
			close(exited)
		}()
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
		}
	}
	c.client.CloseIdleConnections()
}

// cpu sums the user and system time of the exited hanode processes.
func (c *httpCluster) cpu() time.Duration {
	var d time.Duration
	for _, cmd := range c.cmds {
		if ps := cmd.ProcessState; ps != nil {
			d += ps.UserTime() + ps.SystemTime()
		}
	}
	return d
}

func (c *httpCluster) get(node int, path string) ([]byte, error) {
	resp, err := c.client.Get("http://" + c.addrs[node] + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// txReply mirrors hanode's /tx response.
type txReply struct {
	Committed bool    `json:"committed"`
	Err       string  `json:"err"`
	LatencyMS float64 `json:"latency_ms"`
}

// post submits one operation and returns the node's reply.
func (c *httpCluster) post(node int, body []byte) (txReply, error) {
	var out txReply
	resp, err := c.client.Post("http://"+c.addrs[node]+"/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return out, fmt.Errorf("POST /tx: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("POST /tx reply: %w", err)
	}
	return out, nil
}

// ready completes set-up: every node reports both peers connected and
// one canary bump per node shows in every node's /state.
func (c *httpCluster) ready(ctx context.Context) error {
	linked := poll(ctx, 2*time.Millisecond, func() bool {
		for i := range c.addrs {
			body, err := c.get(i, "/healthz")
			if err != nil {
				return false
			}
			var h struct {
				Peers []struct {
					Connected bool `json:"connected"`
				} `json:"peers"`
			}
			if json.Unmarshal(body, &h) != nil || len(h.Peers) != nodes-1 {
				return false
			}
			for _, p := range h.Peers {
				if !p.Connected {
					return false
				}
			}
		}
		return true
	})
	if !linked {
		return fmt.Errorf("set-up: hanode peers did not connect: %s", c.logs[0])
	}
	for i := range c.addrs {
		r, err := c.post(i, []byte(`{"kind":"bump","amount":1}`))
		if err != nil || !r.Committed {
			return fmt.Errorf("set-up: canary at node %d: %v %s", i, err, r.Err)
		}
	}
	seen := poll(ctx, time.Millisecond, func() bool {
		for i := range c.addrs {
			if s, err := c.state(i); err != nil || s.counter != nodes {
				return false
			}
		}
		return true
	})
	if !seen {
		return errors.New("set-up: canaries did not reach every replica")
	}
	return nil
}

// state reads one node's GET /state, which shows balances, the counter
// total and the queue length but not the ACTIVITY entries.
func (c *httpCluster) state(node int) (replicaState, error) {
	var s replicaState
	body, err := c.get(node, "/state")
	if err != nil {
		return s, err
	}
	var v struct {
		Balances map[string]int64 `json:"balances"`
		Counter  int64            `json:"counter"`
		QueueLen int64            `json:"queue_len"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return s, fmt.Errorf("GET /state: %w", err)
	}
	s.counter, s.queue = v.Counter, v.QueueLen
	for a := 0; a < 2*nodes; a++ {
		s.balances += v.Balances[app.LiveAccount(a)]
	}
	return s, nil
}

// initialBalances is what the six accounts hold before any operation.
const initialBalances = 2 * nodes * 1000

// check waits for the three replicas to show the acknowledged state —
// counter total, queue length and the balance total the central office
// derives from the acknowledged deposits and withdrawals — and fails
// if they do not get there.
func (c *httpCluster) check(ctx context.Context, want tally) error {
	wantBal := int64(initialBalances)
	for _, a := range want.activity {
		wantBal += a
	}
	var last string
	ok := poll(ctx, 20*time.Millisecond, func() bool {
		for i := range c.addrs {
			s, err := c.state(i)
			if err != nil {
				last = fmt.Sprintf("node %d: %v", i, err)
				return false
			}
			if s.counter != want.bumps || s.queue != want.enqueues || s.balances != wantBal {
				last = fmt.Sprintf("node %d shows counter %d queue %d balances %d, acknowledged %d %d %d",
					i, s.counter, s.queue, s.balances, want.bumps, want.enqueues, wantBal)
				return false
			}
		}
		return true
	})
	if !ok {
		return errors.New("state check: " + last)
	}
	return nil
}

// counters sums the scraped families over the three nodes' /metrics
// pages.
func (c *httpCluster) counters() (counters, error) {
	out := counters{}
	for i := range c.addrs {
		body, err := c.get(i, "/metrics")
		if err != nil {
			return nil, err
		}
		m, err := obs.ParsePromText(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("parse /metrics: %w", err)
		}
		for _, name := range scraped {
			out[name] += m.Sum("fragdb_"+name, nil)
		}
	}
	return out, nil
}
