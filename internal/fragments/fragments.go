// Package fragments implements the data-control model of the paper's
// Section 3.1: the database is logically divided into k non-overlapping
// fragments; every fragment has exactly one token; the current owner of
// the token — a user or a node — is the fragment's agent, the only
// party that may initiate update transactions on the fragment.
//
// The package also implements the read-access graph of Section 4.2 and
// its elementary-acyclicity test, the precondition of the paper's
// theorem ("the transaction execution schedule is globally serializable
// if the corresponding read-access graph is elementarily acyclic").
package fragments

import (
	"fmt"
	"slices"
	"sync"

	"fragdb/internal/netsim"
)

// ObjectID names a data object, e.g. "bal:00001".
type ObjectID string

// FragmentID names a fragment, e.g. "BALANCES" or "ACTIVITY(00001)".
type FragmentID string

// AgentID identifies an agent — the owner of a fragment's token. Agents
// model both users (bank customers, warehouse clerks) and nodes (the
// central office computer), per Section 3.1.
type AgentID string

// NodeAgent returns the AgentID conventionally used for the node itself
// acting as an agent.
func NodeAgent(n netsim.NodeID) AgentID {
	return AgentID(fmt.Sprintf("node:%d", int(n)))
}

// Fragment is one of the k non-overlapping subsets of the database.
type Fragment struct {
	ID  FragmentID
	cat *Catalog
	// static holds the objects declared with the fragment (AddFragment,
	// AddObject); guarded by cat.mu.
	static map[ObjectID]struct{}
}

// Objects returns the fragment's objects in sorted order: its declared
// ones and those its agent's transactions created (Section 4.4.2A's
// "new data items") that the stores of this process hold.
func (f *Fragment) Objects() []ObjectID {
	f.cat.mu.RLock()
	out := make([]ObjectID, 0, len(f.static))
	for o := range f.static {
		out = append(out, o)
	}
	stored := f.cat.stored
	f.cat.mu.RUnlock()
	if stored != nil {
		out = append(out, stored(f.ID)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Catalog is the schema: the fragments, their declared (static)
// objects, and which fragment each static object belongs to.
// Fragments are non-overlapping: an object belongs to exactly one
// fragment. Objects a transaction creates are not cataloged: they live
// only in the stores that hold them (storage.Version names each one's
// fragment), so the catalog does not grow with the data. In the
// simulator one catalog serves every node of a cluster; it is safe for
// concurrent use.
type Catalog struct {
	mu    sync.RWMutex
	frags map[FragmentID]*Fragment
	owner map[ObjectID]FragmentID
	// stored lists a fragment's created objects for Fragment.Objects;
	// set by the cluster that owns the stores (SetStoredObjects).
	stored func(FragmentID) []ObjectID
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		frags: make(map[FragmentID]*Fragment),
		owner: make(map[ObjectID]FragmentID),
	}
}

// SetStoredObjects installs the function Fragment.Objects calls to list
// a fragment's objects held in stores beyond its declared ones.
func (c *Catalog) SetStoredObjects(fn func(FragmentID) []ObjectID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stored = fn
}

// AddFragment declares a fragment with the given initial objects. It
// returns an error if the fragment already exists or any object is
// already claimed by another fragment (fragments must not overlap).
func (c *Catalog) AddFragment(id FragmentID, objects ...ObjectID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.frags[id]; ok {
		return fmt.Errorf("fragments: fragment %q already declared", id)
	}
	f := &Fragment{ID: id, cat: c, static: make(map[ObjectID]struct{}, len(objects))}
	c.frags[id] = f
	for _, o := range objects {
		if err := c.addObjectLocked(id, o); err != nil {
			return err
		}
	}
	return nil
}

// AddObject declares one more static object of an existing fragment.
func (c *Catalog) AddObject(frag FragmentID, o ObjectID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addObjectLocked(frag, o)
}

func (c *Catalog) addObjectLocked(frag FragmentID, o ObjectID) error {
	f, ok := c.frags[frag]
	if !ok {
		return fmt.Errorf("fragments: unknown fragment %q", frag)
	}
	if prev, claimed := c.owner[o]; claimed {
		return fmt.Errorf("fragments: object %q already in fragment %q", o, prev)
	}
	f.static[o] = struct{}{}
	c.owner[o] = frag
	return nil
}

// FragmentOf returns the fragment containing the static object o.
func (c *Catalog) FragmentOf(o ObjectID) (FragmentID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.owner[o]
	return f, ok
}

// Fragment returns the fragment with the given id.
func (c *Catalog) Fragment(id FragmentID) (*Fragment, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.frags[id]
	return f, ok
}

// Fragments returns all fragment ids in sorted order.
func (c *Catalog) Fragments() []FragmentID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]FragmentID, 0, len(c.frags))
	for id := range c.frags {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// NumObjects reports the number of static objects across all
// fragments.
func (c *Catalog) NumObjects() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.owner)
}
