package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"arb/internal/storage"
	"arb/internal/tmnf"
)

// npSiblingsProgram selects the NP children of nodes with an NP child: an
// upward and a downward condition, which need both phases.
const npSiblingsProgram = `C :- Label[NP]; U :- C; U :- U.invNextSibling; P :- U.invFirstChild;
	D :- P.FirstChild; D :- D.NextSibling; QUERY :- D, Label[NP];`

// warmPool is a product lane's worth of programs over batchDoc: batchPool's
// draw and npSiblingsProgram, so the lane needs both phases and its state
// file.
func warmPool(t *testing.T, rng *rand.Rand) []*tmnf.Program {
	return append(batchPool(t, rng), tmnf.MustParse(npSiblingsProgram))
}

// warmDB stores batchDoc on disk.
func warmDB(t *testing.T, rng *rand.Rand) *storage.DB {
	t.Helper()
	db, err := storage.CreateFromTree(filepath.Join(t.TempDir(), "db"), batchDoc(t, rng, 6))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// keptProduct returns the one product kept in ps.
func keptProduct(t *testing.T, ps *Products) (p *product) {
	t.Helper()
	ps.kept.Do(func(kept *[]*product) {
		if len(*kept) != 1 {
			t.Fatalf("%d products kept, want the lane's one", len(*kept))
		}
		p = (*kept)[0]
	})
	return p
}

// tdEntries returns the number of dense δB entries of c, and how many of
// them carry the selects bit, failing the test on an entry whose bit
// disagrees with the query mask of its state.
func tdEntries(t *testing.T, c *StepCache, label string) (n, selecting int) {
	t.Helper()
	for i, e := range c.td {
		if e == 0 {
			continue
		}
		id := e&^tdSelects - 1
		if sel, mask := e < 0, c.QueryMask(id); sel != (mask != 0) {
			t.Fatalf("%s: δB entry %d (state %d) has selects bit %v, query mask %#x", label, i, id, sel, mask)
		}
		n++
		if e < 0 {
			selecting++
		}
	}
	return n, selecting
}

// TestStepCacheSelectsBit runs a scalar engine and a product lane twice
// each, then checks the warm leader cache each keeps: every dense δB entry
// says whether its state selects exactly when the state's query mask is
// non-zero, and both kinds of entry occur. With a zero dense budget the
// cache keeps its δB steps in the map fallback, which has no bit, and the
// kernel takes the slow path: the answers equal the dense tables'.
func TestStepCacheSelectsBit(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	db := warmDB(t, rng)
	pool := warmPool(t, rng)
	ctx := context.Background()
	budget := maxDenseEntries
	t.Cleanup(func() { maxDenseEntries = budget })

	// run executes progs twice as one batch on fresh engines with a kept
	// product, and returns the second run's results and the warm cache of
	// the one lane, rebound to a stepper of its automaton.
	run := func(progs []*tmnf.Program) ([]*Result, *StepCache) {
		members := batchMembers(t, progs, db.Names)
		kept := &Products{}
		var res []*Result
		for range 2 {
			var err error
			if res, _, _, err = RunDiskBatch(ctx, db, members, DiskBatchOpts{DiskOpts: DiskOpts{NoPrune: true}, Products: kept}); err != nil {
				t.Fatal(err)
			}
		}
		if len(members) == 1 {
			e := members[0].E
			return res, takeCache(e.Share(), e.names, &e.warm)
		}
		p := keptProduct(t, kept)
		v := &productView{product: p}
		for _, e := range p.engines {
			v.shared = append(v.shared, e.Share())
		}
		return res, takeCache(v, db.Names, &p.warm)
	}

	for _, lane := range []struct {
		name  string
		progs []*tmnf.Program
	}{{"scalar", pool[len(pool)-1:]}, {"product", pool}} {
		t.Run(lane.name, func(t *testing.T) {
			maxDenseEntries = budget
			dense, c := run(lane.progs)
			n, selecting := tdEntries(t, c, "dense tables")
			if n == 0 || selecting == 0 || selecting == n {
				t.Fatalf("%d dense δB entries, %d of them selecting: want both kinds", n, selecting)
			}

			maxDenseEntries = 0
			fallback, c := run(lane.progs)
			if len(c.td) != 0 || len(c.tdMap) == 0 {
				t.Fatalf("a zero dense budget left %d dense δB entries and %d map entries, want the map fallback", len(c.td), len(c.tdMap))
			}
			for m, prog := range lane.progs {
				sameResults(t, prog, int(db.N), fallback[m], dense[m], fmt.Sprintf("member %d: map fallback vs dense tables", m))
			}
		})
	}
}

// TestBatchKeptProductWarmRun runs one batch three times with its products
// kept. The second run steps the first run's product: it interns no tuple
// and computes no transition, and answers as the first did. A kept product
// whose tuples need two bytes starts the next run two bytes wide: with the
// one-byte width shrunk below the product's tuples but above every
// member's states, the kept product's run writes two-byte states with no
// rerun, where a fresh product starts at one byte and reruns four wide.
func TestBatchKeptProductWarmRun(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	db := warmDB(t, rng)
	pool := warmPool(t, rng)
	ctx := context.Background()
	members := batchMembers(t, pool, db.Names)
	kept := &Products{}
	exec := func(ps *Products) ([]*Result, Stats, *DiskStats) {
		t.Helper()
		rs := &RunStats{}
		res, _, ds, err := RunDiskBatch(ctx, db, members, DiskBatchOpts{DiskOpts: DiskOpts{NoPrune: true, Run: rs}, Products: ps})
		if err != nil {
			t.Fatal(err)
		}
		return res, rs.Snapshot(), ds
	}
	tupleCounts := func(p *product) (n [3]int) {
		p.t.Do(func(t *productTables) { n = [3]int{t.sigs.len(), t.bu.len(), t.td.len()} })
		return n
	}

	first, cold, _ := exec(kept)
	if cold.BUTransitions == 0 || cold.TDTransitions == 0 {
		t.Fatalf("the first run computed %+v: want cold transitions", cold)
	}
	p := keptProduct(t, kept)
	tuples := tupleCounts(p)
	second, warm, _ := exec(kept)
	if keptProduct(t, kept) != p {
		t.Fatal("the second run replaced the kept product")
	}
	if got := tupleCounts(p); got != tuples {
		t.Fatalf("the second run interned tuples: %v, then %v", tuples, got)
	}
	if warm.BUTransitions != 0 || warm.TDTransitions != 0 || warm.BUStates != 0 || warm.TDStates != 0 {
		t.Fatalf("the second run computed %+v: want no cold transition", warm)
	}
	for m, prog := range pool {
		sameResults(t, prog, int(db.N), second[m], first[m], fmt.Sprintf("member %d: warm run vs cold run", m))
	}

	// The one-byte width holds ids below S, and a run starts two bytes wide
	// once its automata hold S - S/4 states.
	states := 0
	for _, bm := range members {
		states = max(states, bm.E.BUStateCount())
	}
	S := StateID(4)
	for int(S-S/4) <= states {
		S++
	}
	if int(S) >= tuples[1] {
		t.Fatalf("the product holds %d bottom-up tuples, its members at most %d states: the product does not outgrow them", tuples[1], states)
	}
	ids := stateByteIDs
	t.Cleanup(func() { stateByteIDs = ids })
	stateByteIDs = S
	for _, row := range []struct {
		name  string
		ps    *Products
		width int64
	}{{"kept product", kept, stateNarrow}, {"fresh product", nil, stateWide}} {
		res, _, ds := exec(row.ps)
		if ds.StateBytes != db.N*row.width {
			t.Fatalf("%s: %d state bytes, want %d: %d-byte states", row.name, ds.StateBytes, db.N*row.width, row.width)
		}
		for m, prog := range pool {
			sameResults(t, prog, int(db.N), res[m], first[m], fmt.Sprintf("%s, member %d", row.name, m))
		}
	}
}
