package workload

import (
	"fmt"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
)

// Warehouse is the wholesale-company database of Section 4.2
// (Figure 4.2.1): one fragment W_i per warehouse location recording
// sales, shipments, and quantity on hand; one fragment C controlled by
// the central office recording purchase decisions computed by
// periodically scanning the W_i. The read-access graph is a star
// (C reads every W_i), which is elementarily acyclic — so the cluster
// runs under the AcyclicReads option and the paper's theorem guarantees
// global serializability with no read locks at all: warehouses keep
// entering sales during communication failures, and the central office
// always computes over a consistent view.
type Warehouse struct {
	cl       *core.Cluster
	n        int
	products []string
}

// WarehouseConfig configures a Warehouse.
type WarehouseConfig struct {
	Cluster core.Config
	// Warehouses is the number of warehouse locations; warehouse i's
	// fragment lives at node i+1, the central office at node 0. The
	// cluster therefore needs N >= Warehouses+1 nodes.
	Warehouses int
	// Products stocked at every location.
	Products []string
	// InitialStock per product per location.
	InitialStock int64
}

// WarehouseAgent names warehouse i's agent.
func WarehouseAgent(i int) fragments.AgentID {
	return fragments.AgentID(fmt.Sprintf("wh:%d", i))
}

// WarehouseFragment names warehouse i's fragment.
func WarehouseFragment(i int) fragments.FragmentID {
	return fragments.FragmentID(fmt.Sprintf("W%d", i))
}

// CentralFragment is the purchasing fragment's id.
const CentralFragment = fragments.FragmentID("C")

func stockObj(w int, product string) fragments.ObjectID {
	return fragments.ObjectID(fmt.Sprintf("stock:%d:%s", w, product))
}

func soldObj(w int, product string) fragments.ObjectID {
	return fragments.ObjectID(fmt.Sprintf("sold:%d:%s", w, product))
}

func planObj(product string) fragments.ObjectID {
	return fragments.ObjectID("plan:" + product)
}

// NewWarehouse builds and starts the wholesale cluster under the
// AcyclicReads option, as the Figure 4.2.1 design intends.
func NewWarehouse(cfg WarehouseConfig) (*Warehouse, error) {
	return NewWarehouseWithOption(cfg, core.AcyclicReads)
}

// NewWarehouseWithOption builds the same schema under an explicit
// control option (experiments use ReadLocks for contrast runs).
func NewWarehouseWithOption(cfg WarehouseConfig, opt core.ControlOption) (*Warehouse, error) {
	if cfg.Cluster.N < cfg.Warehouses+1 {
		return nil, fmt.Errorf("workload: need N >= %d nodes", cfg.Warehouses+1)
	}
	cfg.Cluster.Option = opt
	cl := core.NewCluster(cfg.Cluster)
	w := &Warehouse{cl: cl, n: cfg.Warehouses, products: cfg.Products}

	var planObjs []fragments.ObjectID
	for _, p := range cfg.Products {
		planObjs = append(planObjs, planObj(p))
	}
	if err := cl.Catalog().AddFragment(CentralFragment, planObjs...); err != nil {
		return nil, err
	}
	cl.Tokens().Assign(CentralFragment, fragments.NodeAgent(0), 0)
	for i := 1; i <= cfg.Warehouses; i++ {
		var objs []fragments.ObjectID
		for _, p := range cfg.Products {
			objs = append(objs, stockObj(i, p), soldObj(i, p))
		}
		if err := cl.Catalog().AddFragment(WarehouseFragment(i), objs...); err != nil {
			return nil, err
		}
		cl.Tokens().Assign(WarehouseFragment(i), WarehouseAgent(i), netsim.NodeID(i))
		// Figure 4.2.1: the only read-access edges run from C to each W_i.
		cl.DeclareRead(CentralFragment, WarehouseFragment(i))
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}
	for i := 1; i <= cfg.Warehouses; i++ {
		for _, p := range cfg.Products {
			if err := cl.Load(stockObj(i, p), cfg.InitialStock); err != nil {
				return nil, err
			}
			if err := cl.Load(soldObj(i, p), int64(0)); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// Cluster exposes the underlying engine.
func (w *Warehouse) Cluster() *core.Cluster { return w.cl }

// Sell records a sale of qty units of product at warehouse i (the
// warehouse's own node). It decrements stock and increments the sold
// counter; a sale exceeding stock is refused locally.
func (w *Warehouse) Sell(i int, product string, qty int64, done func(core.TxnResult)) {
	w.cl.Node(netsim.NodeID(i)).Submit(core.TxnSpec{
		Agent:    WarehouseAgent(i),
		Fragment: WarehouseFragment(i),
		Label:    fmt.Sprintf("sell:%d:%s", i, product),
		Program: func(tx *core.Tx) error {
			stock, err := tx.ReadInt(stockObj(i, product))
			if err != nil {
				return err
			}
			if stock < qty {
				return fmt.Errorf("workload: warehouse %d out of %s", i, product)
			}
			sold, err := tx.ReadInt(soldObj(i, product))
			if err != nil {
				return err
			}
			if err := tx.Write(stockObj(i, product), stock-qty); err != nil {
				return err
			}
			return tx.Write(soldObj(i, product), sold+qty)
		},
	}, done)
}

// Receive records a merchandise shipment arriving at warehouse i.
func (w *Warehouse) Receive(i int, product string, qty int64, done func(core.TxnResult)) {
	w.cl.Node(netsim.NodeID(i)).Submit(core.TxnSpec{
		Agent:    WarehouseAgent(i),
		Fragment: WarehouseFragment(i),
		Label:    fmt.Sprintf("receive:%d:%s", i, product),
		Program: func(tx *core.Tx) error {
			stock, err := tx.ReadInt(stockObj(i, product))
			if err != nil {
				return err
			}
			return tx.Write(stockObj(i, product), stock+qty)
		},
	}, done)
}

// Plan runs the central office's periodic purchasing transaction: scan
// every warehouse's stock of every product and record how much to buy
// (a simple reorder-up-to policy). Under the AcyclicReads option this
// scan is lock-free yet globally serializable.
func (w *Warehouse) Plan(reorderUpTo int64, done func(core.TxnResult)) {
	w.cl.Node(0).Submit(core.TxnSpec{
		Agent:    fragments.NodeAgent(0),
		Fragment: CentralFragment,
		Label:    "plan",
		Program: func(tx *core.Tx) error {
			for _, p := range w.products {
				total := int64(0)
				for i := 1; i <= w.n; i++ {
					v, err := tx.ReadInt(stockObj(i, p))
					if err != nil {
						return err
					}
					total += v
				}
				buy := int64(0)
				if total < reorderUpTo {
					buy = reorderUpTo - total
				}
				if err := tx.Write(planObj(p), buy); err != nil {
					return err
				}
			}
			return nil
		},
	}, done)
}

// CheckOtherStock runs a READ-ONLY transaction at warehouse i's node
// that reads warehouse j's stock — the Section 4.2 allowance: "one
// warehouse can be allowed to read from the fragment controlled by
// another warehouse with no great harm (this can be useful when the
// current inventory at this warehouse is not sufficient to satisfy a
// customer's request)". Read-only transactions are exempt from the
// read-access restrictions, so this works even though no W_i -> W_j
// edge is declared; the answer may reflect non-serializable staleness,
// which only shows in this output, never in the database.
func (w *Warehouse) CheckOtherStock(i, j int, product string, done func(int64, error)) {
	var v int64
	w.cl.Node(netsim.NodeID(i)).Submit(core.TxnSpec{
		Agent: WarehouseAgent(i), // read-only: any agent may initiate anywhere
		Label: fmt.Sprintf("check:%d->%d:%s", i, j, product),
		Program: func(tx *core.Tx) error {
			var err error
			v, err = tx.ReadInt(stockObj(j, product))
			return err
		},
	}, func(r core.TxnResult) {
		if done == nil {
			return
		}
		if !r.Committed {
			v = 0
		}
		done(v, r.Err)
	})
}

// Stock returns warehouse i's stock of product as replicated at node.
func (w *Warehouse) Stock(node netsim.NodeID, i int, product string) int64 {
	v, _ := w.cl.Node(node).Store().Get(stockObj(i, product))
	if v == nil {
		return 0
	}
	return v.(int64)
}

// PlanFor returns the central plan for product as replicated at node.
func (w *Warehouse) PlanFor(node netsim.NodeID, product string) int64 {
	v, _ := w.cl.Node(node).Store().Get(planObj(product))
	if v == nil {
		return 0
	}
	return v.(int64)
}
