package workload

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
)

func newBank(t *testing.T, seed int64) *Bank {
	t.Helper()
	b, err := NewBank(BankConfig{
		Cluster:     core.Config{N: 3, Seed: seed},
		CentralNode: 0,
		Accounts:    []string{"00001", "00002"},
		CustomerHome: map[string]netsim.NodeID{
			"00001": 1,
			"00002": 2,
		},
		InitialBalance: 300,
		OverdraftFine:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDepositFlowsToBalance(t *testing.T) {
	b := newBank(t, 1)
	cl := b.Cluster()
	defer cl.Shutdown()
	var res core.TxnResult
	b.Deposit(1, "00001", 150, func(r core.TxnResult) { res = r })
	if !cl.Settle(20 * time.Second) {
		t.Fatal("did not settle")
	}
	if !res.Committed {
		t.Fatalf("deposit = %+v", res)
	}
	// The central office processed it: recorded balance is 450
	// everywhere.
	for i := 0; i < 3; i++ {
		if got := b.Balance(netsim.NodeID(i), "00001"); got != 450 {
			t.Errorf("node %d balance = %d, want 450", i, got)
		}
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
}

func TestWithdrawDeniedOnInsufficientLocalView(t *testing.T) {
	b := newBank(t, 2)
	cl := b.Cluster()
	defer cl.Shutdown()
	var res core.TxnResult
	b.Withdraw(1, "00001", 400, func(r core.TxnResult) { res = r })
	cl.Settle(10 * time.Second)
	if res.Committed || !errors.Is(res.Err, ErrInsufficientFunds) {
		t.Fatalf("res = %+v", res)
	}
	if got := b.Balance(0, "00001"); got != 300 {
		t.Errorf("balance = %d", got)
	}
}

// TestScenario1 reproduces Section 1's first scenario on the
// fragments-and-agents system: two $100 withdrawals from a $300 account
// on opposite sides of a partition. Both are served (availability), and
// after the heal the central office folds both in with no overdraft.
func TestScenario1BothServedNoOverdraft(t *testing.T) {
	b := newBank(t, 3)
	cl := b.Cluster()
	defer cl.Shutdown()
	// Customer 00001's agent can issue at any node it is homed at; to
	// model "the same customer withdrawing at two locations", move the
	// agent between ops (commutative fragment: free movement).
	cl.Net().Partition([]netsim.NodeID{0, 1}, []netsim.NodeID{2})
	var r1, r2 core.TxnResult
	b.Withdraw(1, "00001", 100, func(r core.TxnResult) { r1 = r })
	cl.RunFor(100 * time.Millisecond)
	if err := b.MoveCustomer("00001", 2); err != nil {
		t.Fatal(err)
	}
	b.Withdraw(2, "00001", 100, func(r core.TxnResult) { r2 = r })
	cl.RunFor(100 * time.Millisecond)
	if !r1.Committed || !r2.Committed {
		t.Fatalf("r1=%+v r2=%+v (both must be served)", r1, r2)
	}
	cl.Net().Heal()
	if !cl.Settle(30 * time.Second) {
		t.Fatal("did not settle")
	}
	if got := b.Balance(0, "00001"); got != 100 {
		t.Errorf("final balance = %d, want 100", got)
	}
	if len(b.Letters()) != 0 {
		t.Errorf("letters = %+v, want none", b.Letters())
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
}

// TestScenario2 reproduces Section 1's second scenario: two $200
// withdrawals from $300. Both are served during the partition (each
// side's view shows $300); the central office discovers the overdraft,
// assesses the fine exactly once, and sends one letter — the
// centralized corrective action of Section 2.
func TestScenario2OverdraftFinedOnce(t *testing.T) {
	b := newBank(t, 4)
	cl := b.Cluster()
	defer cl.Shutdown()
	cl.Net().Partition([]netsim.NodeID{0, 1}, []netsim.NodeID{2})
	var r1, r2 core.TxnResult
	b.Withdraw(1, "00001", 200, func(r core.TxnResult) { r1 = r })
	cl.RunFor(100 * time.Millisecond)
	if err := b.MoveCustomer("00001", 2); err != nil {
		t.Fatal(err)
	}
	b.Withdraw(2, "00001", 200, func(r core.TxnResult) { r2 = r })
	cl.RunFor(100 * time.Millisecond)
	if !r1.Committed || !r2.Committed {
		t.Fatalf("r1=%+v r2=%+v", r1, r2)
	}
	cl.Net().Heal()
	if !cl.Settle(30 * time.Second) {
		t.Fatal("did not settle")
	}
	// 300 - 200 - 200 = -100, fine 50 => -150.
	if got := b.Balance(2, "00001"); got != -150 {
		t.Errorf("final balance = %d, want -150", got)
	}
	if len(b.Letters()) != 1 {
		t.Fatalf("letters = %d, want exactly 1 (centralized decision)", len(b.Letters()))
	}
	if b.Letters()[0].Account != "00001" || b.Letters()[0].Fine != 50 {
		t.Errorf("letter = %+v", b.Letters()[0])
	}
	if cl.Stats().CorrectiveActions.Load() != 1 {
		t.Errorf("corrective actions = %d", cl.Stats().CorrectiveActions.Load())
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
}

func TestLocalViewTracksUnrecordedActivity(t *testing.T) {
	b := newBank(t, 5)
	cl := b.Cluster()
	defer cl.Shutdown()
	// Partition the customer's node away from the central office: the
	// deposit stays unrecorded, but the local view reflects it.
	cl.Net().Partition([]netsim.NodeID{1}, []netsim.NodeID{0, 2})
	b.Deposit(1, "00001", 120, nil)
	cl.RunFor(500 * time.Millisecond)
	if got := b.Balance(1, "00001"); got != 300 {
		t.Errorf("recorded balance = %d, want 300 (unprocessed)", got)
	}
	if got := b.LocalView(1, "00001"); got != 420 {
		t.Errorf("local view = %d, want 420", got)
	}
	// The central office's view does not include it yet.
	if got := b.LocalView(0, "00001"); got != 300 {
		t.Errorf("central local view = %d, want 300", got)
	}
	cl.Net().Heal()
	if !cl.Settle(30 * time.Second) {
		t.Fatal("did not settle")
	}
	// Now recorded everywhere; local view equals balance again.
	for i := 0; i < 3; i++ {
		n := netsim.NodeID(i)
		if b.Balance(n, "00001") != 420 || b.LocalView(n, "00001") != 420 {
			t.Errorf("node %d: balance=%d view=%d, want 420/420",
				i, b.Balance(n, "00001"), b.LocalView(n, "00001"))
		}
	}
}

func TestTwoAccountsIndependent(t *testing.T) {
	b := newBank(t, 6)
	cl := b.Cluster()
	defer cl.Shutdown()
	b.Deposit(1, "00001", 10, nil)
	b.Withdraw(2, "00002", 20, nil)
	if !cl.Settle(20 * time.Second) {
		t.Fatal("did not settle")
	}
	if b.Balance(0, "00001") != 310 || b.Balance(0, "00002") != 280 {
		t.Errorf("balances = %d, %d", b.Balance(0, "00001"), b.Balance(0, "00002"))
	}
	if err := cl.Recorder().CheckFragmentwise(); err != nil {
		t.Errorf("fragmentwise: %v", err)
	}
}

func TestCustomerMovesFreelyDuringPartition(t *testing.T) {
	// The commutative-fragment property: a customer hops across three
	// nodes (including across partition boundaries) and every operation
	// is eventually folded in exactly once.
	b := newBank(t, 7)
	cl := b.Cluster()
	defer cl.Shutdown()
	cl.Net().Partition([]netsim.NodeID{0}, []netsim.NodeID{1}, []netsim.NodeID{2})
	b.Deposit(1, "00001", 10, nil)
	cl.RunFor(50 * time.Millisecond)
	b.MoveCustomer("00001", 2)
	b.Deposit(2, "00001", 20, nil)
	cl.RunFor(50 * time.Millisecond)
	b.MoveCustomer("00001", 0)
	b.Deposit(0, "00001", 30, nil)
	cl.RunFor(50 * time.Millisecond)
	cl.Net().Heal()
	if !cl.Settle(30 * time.Second) {
		t.Fatal("did not settle")
	}
	if got := b.Balance(1, "00001"); got != 360 {
		t.Errorf("balance = %d, want 360", got)
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
}

// officeTxns counts the committed transactions that updated fragment f.
func officeTxns(cl *core.Cluster, f fragments.FragmentID) int {
	n := 0
	for _, rec := range cl.Recorder().Transactions() {
		if rec.UpdateFragment == f {
			n++
		}
	}
	return n
}

// checkAllRecorded fails the test unless every ACTIVITY entry of acct
// on every node has its RECORDED mark there, and every node's balance
// and local view equal want.
func checkAllRecorded(t *testing.T, b *Bank, acct string, want int64) {
	t.Helper()
	for i := 0; i < b.Cluster().Config().N; i++ {
		n := netsim.NodeID(i)
		if missing := b.Unrecorded(n, acct); len(missing) > 0 {
			t.Errorf("node %d: %d entries without a RECORDED mark, first %s", i, len(missing), missing[0])
		}
		if got, view := b.Balance(n, acct), b.LocalView(n, acct); got != want || view != want {
			t.Errorf("node %d: balance=%d view=%d, want %d/%d", i, got, view, want, want)
		}
	}
}

// TestOfficeFoldsQueuedDeposits: deposits that reach the office while a
// pair is running join one queued item, so the office runs fewer
// BALANCES+RECORDED pairs than it receives quasi-transactions.
func TestOfficeFoldsQueuedDeposits(t *testing.T) {
	b := newBank(t, 8)
	cl := b.Cluster()
	defer cl.Shutdown()
	const n = 20
	committed := 0
	for i := 0; i < n; i++ {
		b.Deposit(1, "00001", 5, func(r core.TxnResult) {
			if r.Committed {
				committed++
			}
		})
	}
	if !cl.Settle(30 * time.Second) {
		t.Fatal("did not settle")
	}
	if committed != n {
		t.Fatalf("committed %d of %d deposits", committed, n)
	}
	pairs := officeTxns(cl, "BALANCES")
	if pairs >= n {
		t.Errorf("office ran %d BALANCES transactions for %d deposits, want fewer", pairs, n)
	}
	if marks := officeTxns(cl, recordedFragment("00001")); marks != pairs {
		t.Errorf("%d RECORDED transactions for %d BALANCES transactions", marks, pairs)
	}
	checkAllRecorded(t, b, "00001", 300+n*5)
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Error(err)
	}
}

// letterKey drops a letter's time, which depends on when the office
// ran, not on what it decided.
func letterKey(ls []Letter) []Letter {
	out := make([]Letter, len(ls))
	for i, l := range ls {
		out[i] = Letter{Account: l.Account, Balance: l.Balance, Fine: l.Fine}
	}
	return out
}

// TestFoldFinesLikeSequential: an overdraft followed by a covering
// deposit in the same fold is fined exactly as when each
// quasi-transaction has a pair of its own — the office checks the
// balance after each group, not once per fold.
func TestFoldFinesLikeSequential(t *testing.T) {
	run := func(fold bool) (*Bank, []Letter) {
		b := newBank(t, 9)
		b.fold = fold
		cl := b.Cluster()
		defer cl.Shutdown()
		// A backlog keeps the office busy while an overdraft and the
		// deposit that covers it arrive one after another; both
		// withdrawals are admitted against the unabsorbed balance.
		for i := 0; i < 40; i++ {
			b.Deposit(1, "00001", 1, nil)
		}
		cl.RunFor(20 * time.Millisecond)
		for _, amount := range []int64{-200, -200, 500} {
			if amount < 0 {
				b.Withdraw(1, "00001", -amount, nil)
			} else {
				b.Deposit(1, "00001", amount, nil)
			}
			cl.RunFor(5 * time.Millisecond)
		}
		if !cl.Settle(30 * time.Second) {
			t.Fatal("did not settle")
		}
		checkAllRecorded(t, b, "00001", 300+40-200-200-50+500)
		return b, letterKey(b.Letters())
	}
	_, seq := run(false)
	folded, fold := run(true)
	if len(seq) != 1 || seq[0].Balance != 300+40-400 {
		t.Fatalf("sequential letters = %+v, want one at balance %d", seq, 300+40-400)
	}
	if !reflect.DeepEqual(fold, seq) {
		t.Errorf("folded letters = %+v, sequential = %+v", fold, seq)
	}
	// The three operations did share one BALANCES transaction.
	shared := false
	for _, rec := range folded.Cluster().Recorder().Transactions() {
		read := make(map[fragments.ObjectID]bool)
		for _, r := range rec.Reads {
			read[r.Object] = true
		}
		if rec.UpdateFragment == "BALANCES" &&
			read["act:00001:1:41"] && read["act:00001:1:42"] && read["act:00001:1:43"] {
			shared = true
		}
	}
	if !shared {
		t.Error("the three operations never shared a fold")
	}
}

// TestReadLockOfficeDoesNotFold: under the Section 4.1 option each
// quasi-transaction keeps a BALANCES+RECORDED pair of its own.
func TestReadLockOfficeDoesNotFold(t *testing.T) {
	b, err := NewBank(BankConfig{
		Cluster:        core.Config{N: 3, Seed: 10},
		CentralNode:    0,
		Accounts:       []string{"00001"},
		CustomerHome:   map[string]netsim.NodeID{"00001": 1},
		InitialBalance: 300,
		OverdraftFine:  50,
		ReadLockOption: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := b.Cluster()
	defer cl.Shutdown()
	const n = 10
	for i := 0; i < n; i++ {
		b.Deposit(1, "00001", 5, nil)
	}
	if !cl.Settle(30 * time.Second) {
		t.Fatal("did not settle")
	}
	if pairs := officeTxns(cl, "BALANCES"); pairs != n {
		t.Errorf("office ran %d BALANCES transactions for %d deposits, want %d", pairs, n, n)
	}
	checkAllRecorded(t, b, "00001", 300+n*5)
}

// TestFoldSplitsAtCap: a backlog larger than foldCap drains in several
// folds of at most foldCap entries each, and every one commits.
func TestFoldSplitsAtCap(t *testing.T) {
	b := newBank(t, 11)
	cl := b.Cluster()
	defer cl.Shutdown()
	const n = 2*foldCap + 10
	for i := 0; i < n; i++ {
		b.Deposit(1, "00001", 1, nil)
	}
	if !cl.Settle(60 * time.Second) {
		t.Fatal("did not settle")
	}
	folds := 0
	for _, rec := range cl.Recorder().Transactions() {
		if rec.UpdateFragment != "BALANCES" {
			continue
		}
		folds++
		if entries := len(rec.Reads) - 1; entries > foldCap {
			t.Errorf("a fold read %d entries, cap %d", entries, foldCap)
		}
	}
	if folds < 3 || folds >= n {
		t.Errorf("%d folds for %d deposits, want at least 3 and fewer than %d", folds, n, n)
	}
	checkAllRecorded(t, b, "00001", 300+n)
}

// TestRecordedRetriedAfterCrash: the central node crashes while the
// RECORDED half of a pair runs. The BALANCES half has committed, so the
// office must retry the marks; otherwise LocalView would count the
// deposit twice forever.
func TestRecordedRetriedAfterCrash(t *testing.T) {
	b := newBank(t, 12)
	cl := b.Cluster()
	defer cl.Shutdown()
	b.Deposit(1, "00001", 150, nil)
	crashed := false
	for end := cl.Now().Add(time.Second); cl.Now() < end; {
		cl.RunFor(100 * time.Microsecond)
		if b.Balance(0, "00001") == 450 && cl.ActiveTxnCount() > 0 {
			cl.Node(0).SimulateCrashRestart()
			crashed = true
			break
		}
	}
	if !crashed {
		t.Fatal("never saw the RECORDED half running")
	}
	if !cl.Settle(30 * time.Second) {
		t.Fatal("did not settle")
	}
	checkAllRecorded(t, b, "00001", 450)
}
