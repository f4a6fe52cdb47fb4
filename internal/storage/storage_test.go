package storage

import (
	"sync"
	"testing"

	"fragdb/internal/fragments"
	"fragdb/internal/txn"
)

func testCatalog(t *testing.T) *fragments.Catalog {
	t.Helper()
	c := fragments.NewCatalog()
	if err := c.AddFragment("F1", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddFragment("F2", "c"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLoadAndGet(t *testing.T) {
	s := New(0, testCatalog(t))
	if err := s.Load("a", 10); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
	if _, ok := s.Get("b"); ok {
		t.Error("Get of unloaded object returned true")
	}
	if err := s.Load("zzz", 1); err == nil {
		t.Error("Load of uncataloged object accepted")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Node() != 0 || s.Catalog() == nil {
		t.Error("accessors wrong")
	}
}

func TestApplyAtomicAndLogged(t *testing.T) {
	s := New(0, testCatalog(t))
	id := txn.ID{Origin: 0, Seq: 1}
	lsn := s.Apply(id, "F1", txn.FragPos{Seq: 1}, []txn.WriteOp{{Object: "a", Value: 1}, {Object: "b", Value: 2}}, 100)
	if lsn != 1 || s.LSN() != 1 {
		t.Errorf("lsn = %d", lsn)
	}
	ver, ok := s.GetVersion("a")
	if !ok || ver.Value != 1 || ver.Txn != id || ver.Stamp != 100 || ver.Pos.Seq != 1 {
		t.Errorf("version = %+v", ver)
	}
	log := s.Log()
	if len(log) != 1 || log[0].Quasi || log[0].Fragment != "F1" || len(log[0].Writes) != 2 {
		t.Errorf("log = %+v", log)
	}
}

// An unlogged store installs and numbers exactly like a logged one and
// retains no record of it.
func TestUnloggedStoreKeepsValuesAndLSNOnly(t *testing.T) {
	s := NewUnlogged(0, testCatalog(t))
	id := txn.ID{Origin: 0, Seq: 1}
	if lsn := s.Apply(id, "F1", txn.FragPos{Seq: 1}, []txn.WriteOp{{Object: "a", Value: 1}}, 100); lsn != 1 {
		t.Errorf("first lsn = %d", lsn)
	}
	q := txn.Quasi{Txn: txn.ID{Origin: 1, Seq: 1}, Fragment: "F2", Pos: txn.FragPos{Seq: 1},
		Home: 1, Writes: []txn.WriteOp{{Object: "c", Value: 9}}, Stamp: 120}
	if lsn := s.ApplyQuasi(q); lsn != 2 || s.LSN() != 2 {
		t.Errorf("second lsn = %d, LSN() = %d", lsn, s.LSN())
	}
	if ver, ok := s.GetVersion("a"); !ok || ver.Value != 1 || ver.Txn != id || ver.Pos.Seq != 1 {
		t.Errorf("version of a = %+v", ver)
	}
	if v, _ := s.Get("c"); v != 9 {
		t.Errorf("c = %v", v)
	}
	if len(s.Log()) != 0 || len(s.LogSince(0)) != 0 {
		t.Errorf("unlogged store retained %d records", len(s.Log()))
	}
}

func TestApplyQuasi(t *testing.T) {
	s := New(1, testCatalog(t))
	q := txn.Quasi{
		Txn: txn.ID{Origin: 0, Seq: 5}, Fragment: "F2", Pos: txn.FragPos{Seq: 3},
		Home: 0, Writes: []txn.WriteOp{{Object: "c", Value: 9}}, Stamp: 50,
	}
	s.ApplyQuasi(q)
	if v, _ := s.Get("c"); v != 9 {
		t.Errorf("c = %v", v)
	}
	log := s.Log()
	if len(log) != 1 || !log[0].Quasi || log[0].Pos.Seq != 3 {
		t.Errorf("log = %+v", log)
	}
}

func TestLogSince(t *testing.T) {
	s := New(0, testCatalog(t))
	for i := 1; i <= 5; i++ {
		s.Apply(txn.ID{Seq: uint64(i)}, "F1", txn.FragPos{Seq: uint64(i)}, []txn.WriteOp{{Object: "a", Value: i}}, 0)
	}
	since := s.LogSince(3)
	if len(since) != 2 || since[0].LSN != 4 || since[1].LSN != 5 {
		t.Errorf("LogSince(3) = %+v", since)
	}
	if len(s.LogSince(10)) != 0 {
		t.Error("LogSince beyond end nonempty")
	}
	if len(s.LogSince(0)) != 5 {
		t.Error("LogSince(0) should return all")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := New(0, testCatalog(t))
	s.Load("a", 1)
	snap := s.Snapshot()
	snap["a"] = 99
	if v, _ := s.Get("a"); v != 1 {
		t.Error("Snapshot aliases store")
	}
}

func TestDiff(t *testing.T) {
	cat := testCatalog(t)
	s1, s2 := New(0, cat), New(1, cat)
	s1.Load("a", 1)
	s1.Load("c", 3)
	s2.Load("a", 1)
	s2.Load("b", 2)
	s2.Load("c", 30)
	d := s1.Diff(s2)
	// b missing in s1, c differs.
	if len(d) != 2 || d[0] != "b" || d[1] != "c" {
		t.Errorf("Diff = %v", d)
	}
	fd := s1.FragmentDiff(s2, "F2")
	if len(fd) != 1 || fd[0] != "c" {
		t.Errorf("FragmentDiff(F2) = %v", fd)
	}
	if len(s1.FragmentDiff(s2, "F1")) != 1 {
		t.Errorf("FragmentDiff(F1) = %v", s1.FragmentDiff(s2, "F1"))
	}
	s1.Load("b", 2)
	s1.Load("c", 30)
	if len(s1.Diff(s2)) != 0 {
		t.Errorf("Diff after sync = %v", s1.Diff(s2))
	}
}

func TestFragmentSnapshotRoundTrip(t *testing.T) {
	cat := testCatalog(t)
	src, dst := New(0, cat), New(1, cat)
	src.Apply(txn.ID{Seq: 1}, "F1", txn.FragPos{Seq: 4}, []txn.WriteOp{{Object: "a", Value: 11}, {Object: "b", Value: 22}}, 77)
	src.Load("c", 5) // different fragment: must not travel
	snap := src.FragmentSnapshot("F1")
	if len(snap) != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	dst.InstallFragmentSnapshot("F1", snap)
	if v, _ := dst.Get("a"); v != 11 {
		t.Errorf("a = %v", v)
	}
	if ver, _ := dst.GetVersion("b"); ver.Pos.Seq != 4 || ver.Stamp != 77 {
		t.Errorf("version metadata lost: %+v", ver)
	}
	if _, ok := dst.Get("c"); ok {
		t.Error("snapshot leaked objects of another fragment")
	}
	if len(src.FragmentSnapshot("missing")) != 0 {
		t.Error("snapshot of unknown fragment nonempty")
	}
}

// The initiation requirement holds for declared objects through the
// catalog and for created ones through their stored version; an object
// unknown here is a creation, in the writer's fragment.
func TestCheckInitiation(t *testing.T) {
	s := New(0, testCatalog(t))
	if err := s.CheckInitiation("F1", "b"); err != nil {
		t.Errorf("valid initiation rejected: %v", err)
	}
	if err := s.CheckInitiation("F1", "c"); err == nil {
		t.Error("cross-fragment write accepted")
	}
	if err := s.CheckInitiation("F1", "new"); err != nil {
		t.Errorf("creation rejected: %v", err)
	}
	s.Apply(txn.ID{Seq: 1}, "F2", txn.FragPos{Seq: 1}, []txn.WriteOp{{Object: "new", Value: 1}}, 1)
	if f, ok := s.FragmentOf("new"); !ok || f != "F2" {
		t.Errorf("FragmentOf(new) = %v, %v", f, ok)
	}
	if err := s.CheckInitiation("F1", "new"); err == nil {
		t.Error("write to another fragment's created object accepted")
	}
	if err := s.CheckInitiation("F2", "new"); err != nil {
		t.Errorf("write to own created object rejected: %v", err)
	}
	if s.Catalog().NumObjects() != 3 {
		t.Errorf("catalog grew to %d objects", s.Catalog().NumObjects())
	}
	if got := s.Objects("F2"); len(got) != 1 || got[0] != "new" {
		t.Errorf("Objects(F2) = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(0, testCatalog(t))
	s.Load("a", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Apply(txn.ID{Origin: 0, Seq: uint64(g*100 + i)}, "F1", txn.FragPos{},
					[]txn.WriteOp{{Object: "a", Value: i}}, 0)
				s.Get("a")
				s.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if s.LSN() != 800 {
		t.Errorf("LSN = %d, want 800", s.LSN())
	}
}
