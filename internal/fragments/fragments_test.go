package fragments

import (
	"slices"
	"testing"
)

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	if err := c.AddFragment("BALANCES", "bal:1", "bal:2"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddFragment("ACTIVITY(1)", "act:1"); err != nil {
		t.Fatal(err)
	}
	if f, ok := c.FragmentOf("bal:2"); !ok || f != "BALANCES" {
		t.Errorf("FragmentOf(bal:2) = %v, %v", f, ok)
	}
	if _, ok := c.FragmentOf("nope"); ok {
		t.Error("FragmentOf returned true for unknown object")
	}
	frag, ok := c.Fragment("BALANCES")
	if !ok || frag.ID != "BALANCES" {
		t.Fatalf("Fragment lookup wrong: %+v", frag)
	}
	objs := frag.Objects()
	if len(objs) != 2 || objs[0] != "bal:1" || objs[1] != "bal:2" {
		t.Errorf("Objects = %v", objs)
	}
	ids := c.Fragments()
	if len(ids) != 2 || ids[0] != "ACTIVITY(1)" || ids[1] != "BALANCES" {
		t.Errorf("Fragments = %v", ids)
	}
	if c.NumObjects() != 3 {
		t.Errorf("NumObjects = %d", c.NumObjects())
	}
}

func TestCatalogRejectsOverlap(t *testing.T) {
	c := NewCatalog()
	if err := c.AddFragment("F1", "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddFragment("F2", "x"); err == nil {
		t.Error("overlapping fragments accepted")
	}
	if err := c.AddFragment("F1"); err == nil {
		t.Error("duplicate fragment accepted")
	}
	if err := c.AddObject("F1", "x"); err == nil {
		t.Error("duplicate object accepted")
	}
	if err := c.AddObject("missing", "y"); err == nil {
		t.Error("AddObject to unknown fragment accepted")
	}
}

func TestTokens(t *testing.T) {
	tk := NewTokens()
	tk.Assign("BALANCES", "node:0", 0)
	tk.Assign("ACTIVITY(1)", "user:alice", 1)
	tk.Assign("RECORDED(1)", "node:0", 0)

	if a, ok := tk.Agent("BALANCES"); !ok || a != "node:0" {
		t.Errorf("Agent = %v, %v", a, ok)
	}
	if _, ok := tk.Agent("nope"); ok {
		t.Error("Agent of unknown fragment")
	}
	if h, ok := tk.Home("user:alice"); !ok || h != 1 {
		t.Errorf("Home = %v, %v", h, ok)
	}
	if h, ok := tk.HomeOfFragment("ACTIVITY(1)"); !ok || h != 1 {
		t.Errorf("HomeOfFragment = %v, %v", h, ok)
	}
	if _, ok := tk.HomeOfFragment("nope"); ok {
		t.Error("HomeOfFragment of unknown fragment")
	}
	fs := tk.FragmentsOf("node:0")
	if len(fs) != 2 || fs[0] != "BALANCES" || fs[1] != "RECORDED(1)" {
		t.Errorf("FragmentsOf = %v", fs)
	}
	ag := tk.Agents()
	if len(ag) != 2 {
		t.Errorf("Agents = %v", ag)
	}
}

func TestMoveAgent(t *testing.T) {
	tk := NewTokens()
	tk.Assign("F", "user:bob", 0)
	if err := tk.MoveAgent("user:bob", 2); err != nil {
		t.Fatal(err)
	}
	if h, _ := tk.Home("user:bob"); h != 2 {
		t.Errorf("Home after move = %v", h)
	}
	if err := tk.MoveAgent("user:ghost", 1); err == nil {
		t.Error("moving unknown agent accepted")
	}
}

func TestNodeAgent(t *testing.T) {
	if NodeAgent(3) != "node:3" {
		t.Errorf("NodeAgent(3) = %q", NodeAgent(3))
	}
}

func TestTokensValidate(t *testing.T) {
	c := NewCatalog()
	c.AddFragment("F1", "a")
	c.AddFragment("F2", "b")
	tk := NewTokens()
	tk.Assign("F1", "node:0", 0)
	if err := tk.Validate(c); err == nil {
		t.Error("missing token for F2 not detected")
	}
	tk.Assign("F2", "user:x", 1)
	if err := tk.Validate(c); err != nil {
		t.Errorf("valid registry rejected: %v", err)
	}
}

func TestTokensClone(t *testing.T) {
	tk := NewTokens()
	tk.Assign("F", "a", 0)
	cl := tk.Clone()
	cl.Assign("F", "b", 1)
	if a, _ := tk.Agent("F"); a != "a" {
		t.Error("Clone aliases original")
	}
}

// Fragment.Objects lists the declared objects and, through the hook the
// stores' owner installs, the stored ones, sorted and without repeats.
func TestObjectsIncludeStoredObjects(t *testing.T) {
	c := NewCatalog()
	if err := c.AddFragment("F", "b", "d"); err != nil {
		t.Fatal(err)
	}
	c.SetStoredObjects(func(f FragmentID) []ObjectID {
		if f != "F" {
			t.Errorf("hook asked for %q", f)
		}
		return []ObjectID{"c", "b", "a"}
	})
	frag, _ := c.Fragment("F")
	if got := frag.Objects(); !slices.Equal(got, []ObjectID{"a", "b", "c", "d"}) {
		t.Errorf("Objects = %v", got)
	}
	if c.NumObjects() != 2 {
		t.Errorf("NumObjects = %d, want the 2 declared", c.NumObjects())
	}
	if _, ok := c.FragmentOf("a"); ok {
		t.Error("FragmentOf knows a stored object; the catalog holds declared ones only")
	}
}
