// Package a is the lockedsend fixture: every way to block while
// holding a mutex, plus the released/forked shapes that must stay
// quiet.
package a

import (
	"sync"
	"time"
)

type node struct {
	mu sync.Mutex
	wg sync.WaitGroup
	ch chan int
}

// bad blocks four ways under an explicit Lock/Unlock pair.
func (n *node) bad() {
	n.mu.Lock()
	n.ch <- 1                    // want `channel send while holding n\.mu`
	<-n.ch                       // want `channel receive while holding n\.mu`
	n.wg.Wait()                  // want `Wait call while holding n\.mu`
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding n\.mu`
	n.mu.Unlock()
	n.ch <- 2 // released: quiet
}

// deferred shows that defer Unlock pins the lock to function end.
func (n *node) deferred() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ch <- 1 // want `channel send while holding n\.mu`
}

// earlyExit is the common unlock-in-branch shape; the send on the
// unlocked path must stay quiet.
func (n *node) earlyExit(v bool) {
	n.mu.Lock()
	if v {
		n.mu.Unlock()
		n.ch <- 1
		return
	}
	n.mu.Unlock()
}

// selects: a select without a default blocks; with a default it is a
// poll and stays quiet.
func (n *node) selects() {
	n.mu.Lock()
	select { // want `select with blocking communication cases while holding n\.mu`
	case v := <-n.ch:
		_ = v
	}
	select {
	case n.ch <- 1:
	default:
	}
	n.mu.Unlock()
}

// spawns: a goroutine body holds none of the spawner's locks.
func (n *node) spawns() {
	n.mu.Lock()
	go func() {
		n.ch <- 1
	}()
	n.mu.Unlock()
}

// flushLocked exercises the *Locked naming convention: entry-held mu.
func (n *node) flushLocked() {
	n.ch <- 1 // want `channel send while holding n\.mu`
}

// drain follows the doc-comment convention.
//
// Caller holds mu.
func (n *node) drain() {
	<-n.ch // want `channel receive while holding n\.mu`
}

// relock: a Locked helper may drop and retake the lock; blocking in
// the window is fine.
func (n *node) relockLocked() {
	n.mu.Unlock()
	n.ch <- 1
	n.mu.Lock()
	n.ch <- 2 // want `channel send while holding n\.mu`
}

// sanctioned shows the escape hatch.
func (n *node) sanctioned() {
	n.mu.Lock()
	n.ch <- 1 //halint:allow lockedsend -- fixture: receiver is buffered and drained by contract
	n.mu.Unlock()
}

type guard struct {
	mu sync.RWMutex
	ch chan int
}

// read: RLock counts as held too.
func (g *guard) read() {
	g.mu.RLock()
	<-g.ch // want `channel receive while holding g\.mu`
	g.mu.RUnlock()
	<-g.ch // released: quiet
}

// sharded mirrors the sharded lock manager: mutexes selected by index.
type sharded struct {
	shards []struct{ mu sync.Mutex }
	ch     chan int
}

// shardBlocked blocks while holding one shard's mutex.
func (m *sharded) shardBlocked(i int) {
	m.shards[i].mu.Lock()
	m.ch <- 1 // want `channel send while holding m\.shards\[i\]\.mu`
	m.shards[i].mu.Unlock()
	m.ch <- 2 // released: quiet
}

// shardPair blocks holding two shard mutexes at once (the multi-shard
// slow path misused). Loop bodies are walked conservatively — their
// acquisitions do not leak past the loop — so the multi-shard shape is
// straight-line here, and the receive reports once per held shard.
func (m *sharded) shardPair() {
	m.shards[0].mu.Lock()
	m.shards[1].mu.Lock()
	<-m.ch // want `channel receive while holding m\.shards\[0\]\.mu` `channel receive while holding m\.shards\[1\]\.mu`
	m.shards[1].mu.Unlock()
	m.shards[0].mu.Unlock()
	<-m.ch // released: quiet
}

// shardHandoff releases the shard before blocking: quiet.
func (m *sharded) shardHandoff(i int) {
	m.shards[i].mu.Lock()
	v := 1
	m.shards[i].mu.Unlock()
	m.ch <- v
}
