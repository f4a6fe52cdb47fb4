package main

import (
	"math/rand"
	"strconv"

	"fragdb/internal/deploy"
	app "fragdb/internal/workload"
)

// nodes is the cluster size of every workload.
const nodes = 3

type opKind uint8

const (
	opDeposit opKind = iota
	opWithdraw
	opBump
	opEnqueue
	numKinds
)

var kindNames = [numKinds]string{"deposit", "withdraw", "bump", "enqueue"}

// mixTable expands weights (in opKind order) into a pick table.
func mixTable(deposit, withdraw, bump, enqueue int) []opKind {
	var t []opKind
	for k, w := range []int{deposit, withdraw, bump, enqueue} {
		for i := 0; i < w; i++ {
			t = append(t, opKind(k))
		}
	}
	return t
}

// opInfo is what the benchmark keeps of an operation once it is sent.
type opInfo struct {
	node   uint8 // node it is submitted at
	kind   opKind
	remote bool  // leaves the node on its blocking path (forwarded op or remote read lock)
	amount int64 // what a commit adds to the expected sums
}

// genOp is one generated client operation.
type genOp struct {
	opInfo
	op deploy.Op
}

// opStream is the seeded operation sequence of one generator. The same
// seed yields the same sequence; nodes see only the operations.
type opStream struct {
	rng        *rand.Rand
	mix        []opKind
	remoteBump bool // aim every bump at the successor node's counter
	readLocks  bool // withdrawals away from the central office take a remote read lock
	rotate     int  // first node of the round-robin
	i          int
}

// next draws the following operation. Node k works on account k, whose
// customer agent is homed there. Deposits of 10-99 against withdrawals
// of 1-20 keep balances rising, so no withdrawal is refused.
func (s *opStream) next() genOp {
	node := (s.rotate + s.i) % nodes
	s.i++
	g := genOp{opInfo: opInfo{node: uint8(node), kind: s.mix[s.rng.Intn(len(s.mix))]}}
	acct := app.LiveAccount(node)
	switch g.kind {
	case opDeposit:
		g.amount = int64(10 + s.rng.Intn(90))
		g.op = deploy.Op{Kind: "deposit", Account: acct, Amount: g.amount}
	case opWithdraw:
		g.amount = int64(1 + s.rng.Intn(20))
		g.remote = s.readLocks && node != 0
		g.op = deploy.Op{Kind: "withdraw", Account: acct, Amount: g.amount}
	case opBump:
		g.amount = 1
		g.op = deploy.Op{Kind: "bump", Amount: 1}
		if s.remoteBump {
			succ := (node + 1) % nodes
			g.op.Counter = &succ
			g.remote = true
		}
	case opEnqueue:
		g.amount = 1
		g.op = deploy.Op{Kind: "enqueue", Item: "it-" + strconv.Itoa(s.rotate) + "-" + strconv.Itoa(s.i)}
	}
	return g
}

// tally sums the acknowledged operations: what every replica must hold
// once the cluster has quiesced.
type tally struct {
	activity [nodes]int64 // per account: deposits minus withdrawals
	bumps    int64
	enqueues int64
}

func (t *tally) add(g opInfo) {
	switch g.kind {
	case opDeposit:
		t.activity[g.node] += g.amount
	case opWithdraw:
		t.activity[g.node] -= g.amount
	case opBump:
		t.bumps += g.amount
	case opEnqueue:
		t.enqueues += g.amount
	}
}

func (t *tally) merge(o tally) {
	for i := range t.activity {
		t.activity[i] += o.activity[i]
	}
	t.bumps += o.bumps
	t.enqueues += o.enqueues
}
