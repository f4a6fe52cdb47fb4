package core

import (
	"fragdb/internal/fragments"
	"fragdb/internal/history"
	"fragdb/internal/lock"
	"fragdb/internal/netsim"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// This file implements the Section 4.1 remote read-lock protocol.
//
// Under the ReadLocks option, a transaction reading a data object
// outside the fragment it updates must lock the object at the home node
// of the agent controlling that fragment — "it is clearly sufficient to
// acquire the lock ... from the home node of the agent in charge of the
// fragment containing that object, for that is the only node at which
// the object can be updated". The grant carries the authoritative
// current value, so the reader observes the primary copy rather than a
// possibly stale replica.
//
// Locks held by remote readers are leased: if the requester is
// partitioned away before releasing (its release message is lost), the
// serving node reclaims the lock after Config.RemoteLockLease.

// serveLockRequest handles a remote shared-lock request at the agent's
// home node.
func (n *Node) serveLockRequest(m lockReqMsg) {
	granted, err := n.locks.Acquire(m.Txn, m.Object, lock.Shared)
	if err != nil {
		if f, ok := n.store.FragmentOf(m.Object); ok {
			n.sh.reg.IncRemoteDeny(f, m.From)
		}
		n.net.Send(n.id, m.From, lockDenyMsg{Txn: m.Txn, Object: m.Object})
		return
	}
	if granted {
		n.grantRemote(m.Txn, m.From, m.Object)
		return
	}
	n.remoteQueued[m.Txn] = remoteQueue{from: m.From, obj: m.Object}
}

// grantRemote replies to a remote lock request with the current value,
// registering the lease.
func (n *Node) grantRemote(id txn.ID, from netsim.NodeID, o fragments.ObjectID) {
	ver, known := n.store.GetVersion(o)
	if rh, ok := n.remoteHeld[id]; ok {
		// Additional object for an already-known remote holder: refresh
		// the lease.
		n.sched.Cancel(rh.leaseEv)
	}
	rh := &remoteHolder{from: from}
	rh.leaseEv = n.sched.After(n.sh.cfg.RemoteLockLease, func() { n.expireRemote(id) })
	n.remoteHeld[id] = rh
	msg := lockGrantMsg{Txn: id, Object: o, Known: known, Version: ver, From: n.id}
	if known {
		msg.Value = ver.Value
	}
	n.net.Send(n.id, from, msg)
}

// expireRemote reclaims locks leaked by an unreachable remote reader.
func (n *Node) expireRemote(id txn.ID) {
	rh, ok := n.remoteHeld[id]
	if !ok {
		return
	}
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KRemoteLockExpire, Txn: id,
			Peer: rh.from, HasPeer: true})
	}
	delete(n.remoteHeld, id)
	n.onGrants(n.locks.Release(id))
}

// handleLockGrant resumes the local transaction waiting on the remote
// read.
func (n *Node) handleLockGrant(m lockGrantMsg) {
	t, ok := n.active[m.Txn]
	if !ok || t.finished {
		// We aborted while the grant was in flight: release it.
		n.net.Send(n.id, m.From, lockReleaseMsg{Txn: m.Txn})
		return
	}
	r := t.rare
	if r == nil || r.pendingRemote == nil || r.pendingRemote.obj != m.Object {
		return // stale or duplicate grant
	}
	frag := r.pendingRemote.frag
	r.pendingRemote = nil
	if r.remoteLocked == nil {
		r.remoteLocked = make(map[netsim.NodeID]bool)
	}
	r.remoteLocked[m.From] = true
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KRemoteLockGrant, Txn: m.Txn,
			Obj: m.Object, Peer: m.From, HasPeer: true})
	}
	if n.rec != nil {
		obs := history.ReadObs{Object: m.Object, Frag: frag}
		if m.Known {
			obs.FromTxn = m.Version.Txn
			obs.Pos = m.Version.Pos
		}
		t.reads = append(t.reads, obs)
	}
	n.resume(t, request{kind: reqRead, obj: m.Object, val: m.Value})
}

// handleLockDeny dooms the local transaction whose remote request was
// refused by the serving node's deadlock detection: the program runs
// again and sees ErrRemoteDenied at that read.
func (n *Node) handleLockDeny(m lockDenyMsg) {
	t, ok := n.active[m.Txn]
	if !ok || t.finished || t.rare == nil || t.rare.pendingRemote == nil || t.rare.pendingRemote.obj != m.Object {
		return
	}
	n.sh.stats.Deadlocks.Add(1)
	if n.tr.Enabled() {
		n.tr.Emit(trace.Event{Kind: trace.KRemoteLockDeny, Txn: m.Txn, Obj: m.Object})
	}
	t.rare.pendingRemote = nil
	t.rare.poisoned = ErrRemoteDenied
	n.resume(t, request{kind: reqRead, obj: m.Object, err: ErrRemoteDenied})
}

// handleLockRelease frees every lock the remote transaction holds here.
func (n *Node) handleLockRelease(m lockReleaseMsg) {
	if rh, ok := n.remoteHeld[m.Txn]; ok {
		n.sched.Cancel(rh.leaseEv)
		delete(n.remoteHeld, m.Txn)
	}
	delete(n.remoteQueued, m.Txn)
	n.onGrants(n.locks.Release(m.Txn))
}
