package arb_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arb"
	"arb/internal/tree"
)

// imageDoc returns a document of about 36 000 nodes over ten tags — past
// the parallel driver's frontier threshold, so Workers = 4 really fans out
// — whose t4 children are missing from every third element, so not(..)
// queries select something.
func imageDoc(t *testing.T) *arb.Tree {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 9000; i++ {
		inner := "<t4/>"
		if i%3 == 0 {
			inner = fmt.Sprintf("<t%d/>", (i+7)%10)
		}
		fmt.Fprintf(&sb, "<t%d>%sab</t%d>", i%10, inner, i%10)
	}
	sb.WriteString("</doc>")
	tr, err := arb.ParseXML(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 1<<15 {
		t.Fatalf("document has %d nodes, below the parallel threshold", tr.Len())
	}
	return tr
}

// TestInMemoryBatchOver64PredicatesRunsInTwoLanes: 65 single-predicate
// members exceed one lane's 64-bit query mask, so an in-memory batch steps
// two lanes — a 64-member product and a member alone. Label selections are
// decided by bottom-up states, so with 65 of them the batch runs one scan
// and writes no state; with a member last that has an upward and a
// downward condition (which neither the one-scan nor the forward verdict
// admits), that member's lane writes one state id per node and the other
// still none: 1 byte a node, as the member's automaton stays under the
// one-byte width. Results are
// bit-identical to each member's scalar Exec and to the naive oracle.
func TestInMemoryBatchOver64PredicatesRunsInTwoLanes(t *testing.T) {
	tr := imageDoc(t)
	sess := arb.NewSession(tr)
	items := make([]any, 65)
	for i := range items {
		p, err := arb.ParseProgram(fmt.Sprintf(`QUERY :- Label[t%d];`, i%10))
		if err != nil {
			t.Fatal(err)
		}
		items[i] = p
	}
	// The t1 children of t2 nodes with a t3 child.
	twoScan, err := arb.ParseProgram(`C :- Label[t3]; U :- C; U :- U.invNextSibling; P :- U.invFirstChild; F :- Label[t2], P;
		D :- F.FirstChild; D :- D.NextSibling; QUERY :- D, Label[t1];`)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(tr.Len())
	for _, tc := range []struct {
		name       string
		last       any
		stateBytes int64
		oneScan    int
	}{
		{"label selections", items[64], 0, 1},
		{"a two-scan member last", twoScan, n, 0},
	} {
		items[64] = tc.last
		want := scalarSelected(t, sess, items)
		checkOracles(t, tr, items, want)
		pb, err := sess.PrepareBatch(items...)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			opts := arb.ExecOpts{Workers: workers, Stats: true}
			checkBatchAgainst(t, fmt.Sprintf("%s, %d workers", tc.name, workers), pb, opts, want)
			_, prof, err := pb.Exec(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if prof.Disk.StateBytes != tc.stateBytes || prof.Disk.OneScan != tc.oneScan {
				t.Fatalf("%s, %d workers: state bytes %d over %d nodes, one-scan %d; want %d and %d",
					tc.name, workers, prof.Disk.StateBytes, n, prof.Disk.OneScan, tc.stateBytes, tc.oneScan)
			}
		}
	}
}

// TestInMemoryExecCreatesNoFile: an in-memory session keeps its record
// image, state files and aux sidecars in RAM, so no execution — scalar,
// batch, multi-pass not(..), marked output, sequential or
// parallel — creates a file in the temp directory or the working one.
func TestInMemoryExecCreatesNoFile(t *testing.T) {
	tr := imageDoc(t)
	tmp, cwd := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	t.Chdir(cwd)
	if os.TempDir() != tmp {
		t.Fatalf("os.TempDir() = %s, want %s", os.TempDir(), tmp)
	}

	sess := arb.NewSession(tr)
	scalar := prepare(t, sess, mustXPath(t, `//t1/t4`))
	multi := prepare(t, sess, mustXPath(t, `//t2[not(t4)]`))
	pb, err := sess.PrepareBatch(mustXPath(t, `//t3`), mustXPath(t, `//t5[not(t4)]`))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		for name, run := range map[string]func() error{
			"scalar": func() error { _, _, err := scalar.Exec(ctx, arb.ExecOpts{Workers: workers}); return err },
			"not":    func() error { _, _, err := multi.Exec(ctx, arb.ExecOpts{Workers: workers}); return err },
			"batch":  func() error { _, _, err := pb.Exec(ctx, arb.ExecOpts{Workers: workers}); return err },
			"markto": func() error {
				_, _, err := multi.Exec(ctx, arb.ExecOpts{Workers: workers, MarkTo: &bytes.Buffer{}})
				return err
			},
		} {
			if err := run(); err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			for _, dir := range []string{tmp, cwd} {
				if ents, err := os.ReadDir(dir); err != nil || len(ents) > 0 {
					t.Fatalf("%s, %d workers: %s holds %v (%v), want nothing", name, workers, dir, ents, err)
				}
			}
		}
	}
}

// TestInMemoryMarkToMatchesDisk: marked output streams from the one
// driver's second scan whichever source it reads, so an in-memory session
// and a disk session over the same document emit identical bytes.
func TestInMemoryMarkToMatchesDisk(t *testing.T) {
	tr := imageDoc(t)
	db, err := arb.CreateDBFromTree(filepath.Join(t.TempDir(), "doc"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mem, disk := arb.NewSession(tr), arb.NewDBSession(db)
	for _, src := range []string{`//t1/t4`, `//t2[not(t4)]`, `//doc`} {
		var out [2]bytes.Buffer
		for i, sess := range []*arb.Session{mem, disk} {
			pq := prepare(t, sess, mustXPath(t, src))
			if _, _, err := pq.Exec(context.Background(), arb.ExecOpts{Workers: 4, MarkTo: &out[i]}); err != nil {
				t.Fatalf("%s: %v", src, err)
			}
		}
		if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
			t.Fatalf("%s: in-memory marked output (%d bytes) differs from the disk session's (%d bytes)", src, out[0].Len(), out[1].Len())
		}
		if !bytes.Contains(out[0].Bytes(), []byte("arb:selected")) {
			t.Fatalf("%s: marked output marks nothing", src)
		}
	}
}

// TestNonPreorderTreeFailsExec: the records of a tree's image say only
// whether a node has children, so a tree not laid out in preorder would be
// answered for as some other tree. Every execution fails instead, saying
// why.
func TestNonPreorderTreeFailsExec(t *testing.T) {
	tr := tree.New(nil)
	a, b, c := tr.Names().MustIntern("a"), tr.Names().MustIntern("b"), tr.Names().MustIntern("c")
	root := tr.AddNode(a)
	first, second := tr.AddNode(b), tr.AddNode(c)
	tr.SetFirst(root, second) // preorder wants node 1 here
	tr.SetSecond(second, first)
	if tr.CheckPreorder() == nil {
		t.Fatal("test tree is in preorder")
	}
	sess := arb.NewSession(tr)
	pq := prepare(t, sess, mustXPath(t, `//b`))
	pb, err := sess.PrepareBatch(mustXPath(t, `//b`))
	if err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"Exec":    func() error { _, _, err := pq.Exec(context.Background(), arb.ExecOpts{}); return err }(),
		"batch":   func() error { _, _, err := pb.Exec(context.Background(), arb.ExecOpts{}); return err }(),
		"EmitXML": sess.EmitXML(context.Background(), &bytes.Buffer{}, nil),
		"Count":   func() error { _, err := pq.Count(context.Background()); return err }(),
	} {
		if err == nil || !strings.Contains(err.Error(), "preorder") {
			t.Fatalf("%s over a tree not in preorder: error %v, want one naming preorder", name, err)
		}
	}
}

func mustXPath(t *testing.T, src string) *arb.XPathQuery {
	t.Helper()
	q, err := arb.ParseXPath(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
