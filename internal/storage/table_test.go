package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fragdb/internal/fragments"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

// model is the reference a version table must agree with: the plain
// map the store held before it had one.
type model struct {
	cat  *fragments.Catalog
	vals map[fragments.ObjectID]Version
}

func (m *model) load(o fragments.ObjectID, v any) {
	if id, ok := m.cat.FragmentOf(o); ok {
		f, _ := m.cat.Fragment(id)
		m.vals[o] = Version{Value: v, Frag: f}
	}
}

func (m *model) install(id txn.ID, frag fragments.FragmentID, pos txn.FragPos, writes []txn.WriteOp, stamp simtime.Time) {
	f, _ := m.cat.Fragment(frag)
	for _, w := range writes {
		m.vals[w.Object] = Version{Value: w.Value, Txn: id, Stamp: stamp, Pos: pos, Frag: f}
	}
}

func (m *model) merge(f *fragments.Fragment, snap map[fragments.ObjectID]Version) int {
	changed := 0
	for o, v := range snap {
		if cur, ok := m.vals[o]; !ok || cur.Pos.Less(v.Pos) {
			v.Frag = f
			m.vals[o] = v
			changed++
		}
	}
	return changed
}

func (m *model) installSnapshot(frag fragments.FragmentID, snap map[fragments.ObjectID]Version) {
	f, _ := m.cat.Fragment(frag)
	for o, v := range snap {
		v.Frag = f
		m.vals[o] = v
	}
}

var modelFrags = []fragments.FragmentID{"F1", "F2", "F3"}

func modelCatalog(t *testing.T) *fragments.Catalog {
	t.Helper()
	c := fragments.NewCatalog()
	for _, err := range []error{
		c.AddFragment("F1", "a", "b"),
		c.AddFragment("F2", "c"),
		c.AddFragment("F3"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// runModel drives s and a reference model through the same seeded
// random sequence of Load, Apply, ApplyQuasi, MergeSnapshot and
// InstallFragmentSnapshot over a universe of ids (the catalog's three
// and dynamic ones), checking the objects a step touched after every
// step and every read method against the model every fullEvery steps
// and at the end.
func runModel(t *testing.T, s *Store, seed int64, steps, universe, fullEvery int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := &model{cat: s.Catalog(), vals: make(map[fragments.ObjectID]Version)}
	ids := []fragments.ObjectID{"a", "b", "c"}
	for i := 0; i < universe; i++ {
		ids = append(ids, fragments.ObjectID(fmt.Sprintf("d%d", i)))
	}
	pick := func() fragments.ObjectID { return ids[rng.Intn(len(ids))] }
	writes := func() []txn.WriteOp {
		w := make([]txn.WriteOp, 1+rng.Intn(4))
		for i := range w {
			w[i] = txn.WriteOp{Object: pick(), Value: rng.Intn(1000)}
		}
		return w
	}
	pos := func() txn.FragPos {
		return txn.FragPos{Epoch: uint64(rng.Intn(2)), Seq: uint64(rng.Intn(50))}
	}
	snap := func() map[fragments.ObjectID]Version {
		out := make(map[fragments.ObjectID]Version)
		for i := rng.Intn(6); i > 0; i-- {
			out[pick()] = Version{Value: rng.Intn(1000), Txn: txn.ID{Origin: 2, Seq: uint64(rng.Intn(100))}, Pos: pos()}
		}
		return out
	}
	for step := 0; step < steps; step++ {
		frag := modelFrags[rng.Intn(len(modelFrags))]
		f, _ := s.Catalog().Fragment(frag)
		var touched []fragments.ObjectID
		switch op := rng.Intn(10); {
		case op == 0:
			o, v := pick(), rng.Intn(1000)
			errS := s.Load(o, v)
			m.load(o, v)
			if _, declared := s.Catalog().FragmentOf(o); (errS == nil) != declared {
				t.Fatalf("step %d: Load(%q) = %v", step, o, errS)
			}
			touched = append(touched, o)
		case op < 5:
			id, p, w, st := txn.ID{Origin: 0, Seq: uint64(step)}, pos(), writes(), simtime.Time(step)
			s.Apply(id, frag, p, w, st)
			m.install(id, frag, p, w, st)
			for _, x := range w {
				touched = append(touched, x.Object)
			}
		case op < 8:
			q := txn.Quasi{Txn: txn.ID{Origin: 1, Seq: uint64(step)}, Fragment: frag, Pos: pos(),
				Home: 1, Writes: writes(), Stamp: simtime.Time(step)}
			s.ApplyQuasi(q)
			m.install(q.Txn, q.Fragment, q.Pos, q.Writes, q.Stamp)
			for _, x := range q.Writes {
				touched = append(touched, x.Object)
			}
		case op == 8:
			sn := snap()
			if got, want := s.MergeSnapshot(f, sn), m.merge(f, sn); got != want {
				t.Fatalf("step %d: MergeSnapshot changed %d objects, model %d", step, got, want)
			}
			for o := range sn {
				touched = append(touched, o)
			}
		default:
			sn := snap()
			s.InstallFragmentSnapshot(frag, sn)
			m.installSnapshot(frag, sn)
			for o := range sn {
				touched = append(touched, o)
			}
		}
		for _, o := range touched {
			checkObject(t, s, m, o, step)
		}
		if s.Len() != len(m.vals) {
			t.Fatalf("step %d: Len = %d, model %d", step, s.Len(), len(m.vals))
		}
		if step%fullEvery == 0 || step == steps-1 {
			for _, o := range ids {
				checkObject(t, s, m, o, step)
			}
			checkWhole(t, s, m, step)
		}
	}
}

func checkObject(t *testing.T, s *Store, m *model, o fragments.ObjectID, step int) {
	t.Helper()
	want, ok := m.vals[o]
	if got, gotOK := s.GetVersion(o); gotOK != ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: GetVersion(%q) = %+v, %v; model %+v, %v", step, o, got, gotOK, want, ok)
	}
	if got, gotOK := s.Get(o); gotOK != ok || got != want.Value {
		t.Fatalf("step %d: Get(%q) = %v, %v; model %v, %v", step, o, got, gotOK, want.Value, ok)
	}
	wantFrag, wantOK := s.Catalog().FragmentOf(o)
	if !wantOK && ok && want.Frag != nil {
		wantFrag, wantOK = want.Frag.ID, true
	}
	if got, gotOK := s.FragmentOf(o); got != wantFrag || gotOK != wantOK {
		t.Fatalf("step %d: FragmentOf(%q) = %q, %v; model %q, %v", step, o, got, gotOK, wantFrag, wantOK)
	}
}

func checkWhole(t *testing.T, s *Store, m *model, step int) {
	t.Helper()
	values := make(map[fragments.ObjectID]any, len(m.vals))
	byFrag := make(map[fragments.FragmentID]map[fragments.ObjectID]Version)
	for o, v := range m.vals {
		values[o] = v.Value
		if byFrag[v.Frag.ID] == nil {
			byFrag[v.Frag.ID] = make(map[fragments.ObjectID]Version)
		}
		byFrag[v.Frag.ID][o] = v
	}
	if got := s.Snapshot(); !reflect.DeepEqual(got, values) {
		t.Fatalf("step %d: Snapshot differs from the model", step)
	}
	if got := s.VersionSnapshot(); !reflect.DeepEqual(got, byFrag) {
		t.Fatalf("step %d: VersionSnapshot differs from the model", step)
	}
	for _, frag := range append(modelFrags, "nope") {
		want := byFrag[frag]
		if want == nil {
			want = map[fragments.ObjectID]Version{}
		}
		if got := s.FragmentSnapshot(frag); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: FragmentSnapshot(%s) differs from the model", step, frag)
		}
		var objs []fragments.ObjectID
		for o := range want {
			objs = append(objs, o)
		}
		slices.Sort(objs)
		if got := s.Objects(frag); !slices.Equal(got, objs) {
			t.Fatalf("step %d: Objects(%s) = %d objects, model %d", step, frag, len(got), len(objs))
		}
	}
}

// The version table against the plain map, past the first chunk's
// doublings and across a chunk boundary (some 5 000 distinct ids).
func TestVersionTableModel(t *testing.T) {
	s := New(0, modelCatalog(t))
	runModel(t, s, 1, 3000, 8000, 250)
	if len(s.chunks) < 2 {
		t.Errorf("%d objects fill %d chunk(s), want a chunk boundary crossed", s.Len(), len(s.chunks))
	}
}

// Every id hashes alike, so every id shares one chain: lookups must
// compare ids, never trust the hash alone.
func TestVersionTableModelCollisions(t *testing.T) {
	s := New(0, modelCatalog(t))
	s.hash = func(fragments.ObjectID) uint64 { return 7 }
	runModel(t, s, 3, 1500, 60, 10)
	if len(s.index) != 1 {
		t.Errorf("index holds %d hashes, want 1", len(s.index))
	}
}

// GetVersion and FragmentOf on other goroutines while the engine's
// goroutine installs fresh objects: the table grows its first chunk,
// adds chunks and extends chains under the readers. Run under -race.
func TestConcurrentAccessDuringGrowth(t *testing.T) {
	s := New(0, modelCatalog(t))
	const n = 3 * chunkSize
	ids := make([]fragments.ObjectID, n)
	for i := range ids {
		ids[i] = fragments.ObjectID(fmt.Sprintf("d%d", i))
	}
	var installed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for installed.Load() < n {
				k := installed.Load()
				if k == 0 {
					runtime.Gosched()
					continue
				}
				i := rng.Intn(int(k))
				if v, ok := s.GetVersion(ids[i]); !ok || v.Value != i {
					t.Errorf("GetVersion(%s) = %+v, %v", ids[i], v, ok)
					return
				}
				if f, ok := s.FragmentOf(ids[i]); !ok || f != "F3" {
					t.Errorf("FragmentOf(%s) = %q, %v", ids[i], f, ok)
					return
				}
			}
		}(g)
	}
	for i, o := range ids {
		s.Apply(txn.ID{Seq: uint64(i)}, "F3", txn.FragPos{Seq: uint64(i + 1)},
			[]txn.WriteOp{{Object: o, Value: i}}, 0)
		installed.Store(int64(i + 1))
	}
	wg.Wait()
	if s.Len() != n {
		t.Errorf("Len = %d, want %d", s.Len(), n)
	}
}

// freshIDs returns n distinct ids and one single-write set per id.
func freshIDs(n int) ([]fragments.ObjectID, [][]txn.WriteOp) {
	ids := make([]fragments.ObjectID, n)
	ws := make([][]txn.WriteOp, n)
	for i := range ids {
		ids[i] = fragments.ObjectID(fmt.Sprintf("acct/%d/act/%d", i%7, i))
		ws[i] = []txn.WriteOp{{Object: ids[i], Value: i}}
	}
	return ids, ws
}

// TestFreshInstallAllocs pins what one fresh object costs a large
// store: a store grown to 100 k objects takes 100 k more one-write
// installs of new objects, the shape of the bank's ACTIVITY entries
// and RECORDED marks. Doubling the store makes the index grow exactly
// once under either Go map implementation, so the figure does not
// depend on where a growth point falls in the window:
//
//   - Bucket maps (Go 1.22, or GOEXPERIMENT=noswissmap): at 100 k the
//     index has 2^14 buckets and grows to 2^15 at 106 496 entries; 2^15
//     112 B buckets plus 2^11 preallocated overflow ones are 3.9 MB, or
//     39 B per install, and the 24 new 4 096-entry chunks of 88 B
//     entries add 87 B. Measured 132 B and 0.041 objects.
//   - Swiss maps (Go 1.24): every 1 024-slot table of the index splits
//     about once. Measured 134 B and 0.0054 objects.
//
// The value map this table replaced measured 257 B (bucket maps: one
// growth of 656 B buckets is 228 B per install) and 231 B (swiss maps)
// per install, so the pin fails there.
func TestFreshInstallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const grown, fresh = 100_000, 100_000
	s := NewUnlogged(0, modelCatalog(t))
	_, ws := freshIDs(grown + fresh)
	for i := 0; i < grown; i++ {
		s.Apply(txn.ID{Seq: uint64(i)}, "F3", txn.FragPos{Seq: uint64(i + 1)}, ws[i], 0)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := grown; i < grown+fresh; i++ {
		s.Apply(txn.ID{Seq: uint64(i)}, "F3", txn.FragPos{Seq: uint64(i + 1)}, ws[i], 0)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / fresh
	objects := float64(after.Mallocs-before.Mallocs) / fresh
	t.Logf("%.0f B and %.4f objects per fresh install", bytes, objects)
	if bytes > freshInstallBytes || objects > freshInstallObjects {
		t.Errorf("%.0f B and %.4f objects per fresh install, want at most %d B and %v objects",
			bytes, objects, freshInstallBytes, freshInstallObjects)
	}
}

// The most one fresh install may cost a store doubling from 100 k
// objects under either map implementation: the measured 132–134 B
// with room for a runtime's rounding, below the value map's 231 B. The
// objects are the bucket maps' overflow buckets, allocated one by one.
const (
	freshInstallBytes   = 170
	freshInstallObjects = 0.06
)

var sinkLSN uint64

// BenchmarkStoreInstall times one single-write install into a store of
// 1 M objects: of a new object (fresh) and of an existing one
// (overwrite). Run it with -benchtime=1000000x: the fresh cell's store
// then doubles, so its B/op carries every split of the index once
// instead of whichever few land in a shorter window.
func BenchmarkStoreInstall(b *testing.B) {
	const size = 1 << 20
	grow := func(b *testing.B, extra int) (*Store, [][]txn.WriteOp) {
		cat := fragments.NewCatalog()
		if err := cat.AddFragment("F"); err != nil {
			b.Fatal(err)
		}
		s := NewUnlogged(0, cat)
		_, ws := freshIDs(size + extra)
		for i := 0; i < size; i++ {
			s.Apply(txn.ID{Seq: uint64(i)}, "F", txn.FragPos{Seq: uint64(i + 1)}, ws[i], 0)
		}
		return s, ws
	}
	b.Run("fresh", func(b *testing.B) {
		s, ws := grow(b, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkLSN = s.Apply(txn.ID{Seq: uint64(size + i)}, "F", txn.FragPos{Seq: uint64(size + i + 1)}, ws[size+i], 0)
		}
	})
	b.Run("overwrite", func(b *testing.B) {
		s, ws := grow(b, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := (i * 7919) % size
			sinkLSN = s.Apply(txn.ID{Seq: uint64(size + i)}, "F", txn.FragPos{Seq: uint64(size + i + 1)}, ws[k], 0)
		}
	})
}
