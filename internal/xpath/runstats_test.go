package xpath

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/xmlparse"
)

// TestExecStatsDeterministicUnderOverlap pins the satellite contract of
// the per-run stats sinks: when executions of one Prepared overlap, each
// one's profile reports exactly its own work. Node counts are fixed per
// run (passes x document size), and the per-run transition counts sum to
// the engines' cumulative totals — every lazily computed transition is
// credited to exactly one run, never double-counted, never dropped.
func TestExecStatsDeterministicUnderOverlap(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 200; i++ {
		sb.WriteString(fmt.Sprintf("<a><b x='1'>t%d</b><c/></a>", i%7))
	}
	sb.WriteString("</root>")
	tr, err := xmlparse.ParseTree(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile("//a[b and not(c)]") // multi-pass: aux engines too
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Prepare(tr.Names())
	if err != nil {
		t.Fatal(err)
	}
	db, err := storage.OpenTree(tr, nil)
	if err != nil {
		t.Fatal(err)
	}

	const runs = 8
	profiles := make([]ExecStats, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, es, err := p.ExecDisk(context.Background(), db, ExecOpts{Workers: 1})
			if err != nil {
				t.Error(err)
				return
			}
			profiles[i] = es
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	wantNodes := int64(p.Passes()) * int64(tr.Len())
	var sum core.Stats
	for i, es := range profiles {
		if es.Engine.Nodes != wantNodes {
			t.Errorf("run %d: Nodes = %d, want %d (deterministic per run)", i, es.Engine.Nodes, wantNodes)
		}
		sum.Add(es.Engine)
	}
	var cum core.Stats
	for _, e := range append(append([]*core.Engine{}, p.aux...), p.main) {
		cum.Add(e.Stats())
	}
	if sum.BUTransitions != cum.BUTransitions || sum.TDTransitions != cum.TDTransitions ||
		sum.BUStates != cum.BUStates || sum.TDStates != cum.TDStates {
		t.Errorf("per-run transition counts do not partition the cumulative totals:\nsum of runs: %+v\ncumulative:  %+v", sum, cum)
	}
	if sum.Nodes != cum.Nodes {
		t.Errorf("per-run node counts sum to %d, engines accumulated %d", sum.Nodes, cum.Nodes)
	}
}

// TestBatchKeptProductsUnderOverlap runs overlapping executions of one
// Batch, whose lanes' products it keeps between executions, and holds them
// to the contract TestExecStatsDeterministicUnderOverlap holds scalar runs
// to: each run's node count is fixed, and the per-run transition counts
// sum to the member engines' totals, however the runs shared the kept
// products and the engines' warm caches. The overlapping executions intern
// product states; a later execution computes no transition and interns no
// product state, and every execution answers as each member does alone.
func TestBatchKeptProductsUnderOverlap(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 300; i++ {
		sb.WriteString(fmt.Sprintf("<a><b x='1'>t%d</b><c/><d><b/></d></a>", i%7))
	}
	sb.WriteString("</root>")
	tr, err := xmlparse.ParseTree(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	db, err := storage.OpenTree(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Three single-pass members share a product lane; the multi-pass one
	// adds aux passes, one of them in a product lane of its round too.
	srcs := []string{"//a/b", "//a[d]/c", "//d/b", "//a[b and not(c)]", "//a//b"}
	var members []*Prepared
	passes := 0
	for _, src := range srcs {
		q, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := q.Prepare(tr.Names())
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, p)
		passes += p.Passes()
	}
	want := make([]*core.Result, len(members))
	for i, p := range members {
		if want[i], _, err = p.ExecDisk(context.Background(), db, ExecOpts{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh engines for the batch: the scalar runs above warmed these.
	for i, src := range srcs {
		q, _ := Compile(src)
		if members[i], err = q.Prepare(tr.Names()); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBatch(members)
	exec := func() ([]*core.Result, ExecStats) {
		res, es, err := b.ExecDisk(context.Background(), db, ExecOpts{Workers: 1})
		if err != nil {
			t.Error(err)
		}
		return res, es
	}
	same := func(res []*core.Result, label string) {
		t.Helper()
		for i, p := range members {
			for _, q := range p.Queries() {
				if got, w := res[i].Selected(q), want[i].Selected(q); !slices.Equal(got, w) {
					t.Fatalf("%s: %s selected %d nodes, alone %d", label, srcs[i], len(got), len(w))
				}
			}
		}
	}

	const runs = 8
	profiles := make([]ExecStats, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res []*core.Result
			if res, profiles[i] = exec(); res != nil {
				same(res, fmt.Sprintf("overlapping run %d", i))
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	wantNodes := int64(passes) * int64(tr.Len())
	var sum core.Stats
	for i, es := range profiles {
		if es.Engine.Nodes != wantNodes {
			t.Errorf("run %d: Nodes = %d, want %d (deterministic per run)", i, es.Engine.Nodes, wantNodes)
		}
		sum.Add(es.Engine)
	}
	var cum core.Stats
	for _, p := range members {
		for _, e := range append(append([]*core.Engine{}, p.aux...), p.main) {
			cum.Add(e.Stats())
		}
	}
	if sum.BUTransitions == 0 || sum.BUTransitions != cum.BUTransitions || sum.TDTransitions != cum.TDTransitions ||
		sum.BUStates != cum.BUStates || sum.TDStates != cum.TDStates {
		t.Errorf("per-run transition counts do not partition the cumulative totals:\nsum of runs: %+v\ncumulative:  %+v", sum, cum)
	}
	if sum.ProductStates == 0 {
		t.Error("the overlapping executions interned no product state: no lane stepped a product")
	}
	res, es := exec()
	if es.Engine.BUTransitions != 0 || es.Engine.TDTransitions != 0 {
		t.Errorf("a warm execution computed %d and %d transitions, want none", es.Engine.BUTransitions, es.Engine.TDTransitions)
	}
	if es.Engine.ProductStates != 0 {
		t.Errorf("a warm execution interned %d product states, want none: the batch keeps its products", es.Engine.ProductStates)
	}
	same(res, "warm run")
}
