package xpath

import (
	"context"
	"fmt"
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
