package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// The window passes read records one pooled buffer at a time and hand
// them out in windows of at most WindowNodes. These tests hold them and
// the per-node scans adapted onto them, on databases and skip lists built
// to put every edge on a read or window boundary, bit-identical to the
// per-record reference loops below — visit order, callback arguments and
// every ScanStats column.

// readNodes is how many records one read of a window pass holds.
const readNodes = defaultBufSize / NodeSize

// spineDB writes a database that is a right-deep spine of siblings, the
// i-th carrying a random first-child subtree ("blob") of blobs[i] nodes
// (none for 0). Blobs are subtree extents, so any subset is a valid skip
// list, and consecutive blobs are exactly one spine node apart — which
// lets a layout choose, node for node, where extents and gaps fall
// relative to the windows. It returns the database, its decoded records
// and the blob extents.
func spineDB(t *testing.T, rng *rand.Rand, blobs []int64) (*DB, []Record, []Extent) {
	t.Helper()
	var recs []Record
	var exts []Extent
	for i, size := range blobs {
		recs = append(recs, Record{Label: 1, HasFirst: size > 0, HasSecond: i < len(blobs)-1})
		if size == 0 {
			continue
		}
		exts = append(exts, Extent{Root: int64(len(recs)), Size: size})
		// Random binary subtree of size nodes, preorder, from a stack of
		// subtree sizes still to emit.
		todo := []int64{size}
		for len(todo) > 0 {
			n := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			first := rng.Int63n(n)
			if rng.Intn(4) == 0 {
				first = 0
			}
			second := n - 1 - first
			recs = append(recs, Record{Label: uint16(2 + rng.Intn(5)), HasFirst: first > 0, HasSecond: second > 0})
			if second > 0 {
				todo = append(todo, second)
			}
			if first > 0 {
				todo = append(todo, first)
			}
		}
	}
	raw := make([]byte, len(recs)*NodeSize)
	for i, r := range recs {
		binary.BigEndian.PutUint16(raw[i*NodeSize:], r.Encode())
	}
	base := filepath.Join(t.TempDir(), "spine")
	writeBareArb(t, base, raw)
	db, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, recs, exts
}

// scanEvent is one visit of a forward scan; parent is the parent's node
// index, -1 for none.
type scanEvent struct {
	v, parent int64
	rec       Record
	k         int
}

// refScan is the per-record reference of a forward scan over [lo, hi):
// the visits of a scan without holes, and the stats of one with them.
func refScan(db *DB, recs []Record, lo, hi int64, skip []Extent) ([]scanEvent, ScanStats) {
	var events []scanEvent
	var st ScanStats
	var pending []int64
	parent, k := int64(-1), 0
	after := func() {
		parent, k = -1, 0
		if n := len(pending); n > 0 {
			parent, k, pending = pending[n-1], 2, pending[:n-1]
		}
	}
	gapStart := lo
	for v := lo; v < hi; {
		if len(skip) > 0 && skip[0].Root == v {
			st.PhysicalBytes += db.PhysSpan(gapStart, v)
			st.Nodes += skip[0].Size
			v = skip[0].End()
			gapStart, skip = v, skip[1:]
			after()
			continue
		}
		rec := recs[v]
		events = append(events, scanEvent{v: v, parent: parent, rec: rec, k: k})
		st.Nodes++
		st.Bytes += NodeSize
		if rec.HasSecond {
			pending = append(pending, v)
			st.MaxStack = max(st.MaxStack, len(pending))
		}
		if rec.HasFirst {
			parent, k = v, 1
		} else {
			after()
		}
		v++
	}
	st.PhysicalBytes += db.PhysSpan(gapStart, hi)
	return events, st
}

// foldOf is the value the fold tests compute per node: it depends on the
// node, its record and both child values, so a wrong argument anywhere
// changes the root's value.
func foldOf(first, second *int64, rec Record, v int64) int64 {
	h := v*1000003 + int64(rec.Encode())
	if first != nil {
		h = h*31 + *first
	}
	if second != nil {
		h = h*37 + *second + 1
	}
	return h
}

// refFold is the per-record reference of a backward fold over [lo, hi):
// the visit order, the root value and the stats.
func refFold(db *DB, recs []Record, lo, hi int64) ([]int64, int64, ScanStats) {
	var order, stack []int64
	st := ScanStats{PhysicalBytes: db.PhysSpan(lo, hi)}
	for v := hi - 1; v >= lo; v-- {
		rec := recs[v]
		var first, second *int64
		if rec.HasFirst {
			first, stack = &stack[len(stack)-1], stack[:len(stack)-1]
		}
		if rec.HasSecond {
			second, stack = &stack[len(stack)-1], stack[:len(stack)-1]
		}
		order = append(order, v)
		stack = append(stack, foldOf(first, second, rec, v))
		st.MaxStack = max(st.MaxStack, len(stack))
		st.Nodes++
		st.Bytes += NodeSize
	}
	return order, stack[0], st
}

// checkScans runs the window passes of [lo, hi) with the given holes
// against the references, and without holes the per-node scans adapted
// onto them, callback by callback. whole selects the whole-database entry
// points, otherwise the adapters run over the extent [lo, hi) alone
// (foldRange, scanRange).
func checkScans(t *testing.T, db *DB, recs []Record, lo, hi int64, skip []Extent, whole bool) {
	t.Helper()
	ctx := context.Background()

	wantEvents, wantSt := refScan(db, recs, lo, hi, skip)
	checkWindowPasses(t, db, recs, lo, hi, skip, wantSt)
	if len(skip) > 0 {
		return
	}
	next := 0
	event := func(e scanEvent, parent *int64) error {
		e.parent = -1
		if parent != nil {
			e.parent = *parent
		}
		if next >= len(wantEvents) || e != wantEvents[next] {
			return fmt.Errorf("event %d is %+v, not the reference's", next, e)
		}
		next++
		return nil
	}
	visit := func(v int64, rec Record, parent *int64, k int) (int64, error) {
		return v, event(scanEvent{v: v, rec: rec, k: k}, parent)
	}
	var st ScanStats
	var err error
	if whole {
		st, err = ScanTopDown(ctx, db, visit)
	} else {
		st, err = scanRange(ctx, db, lo, hi, visit)
	}
	if err != nil {
		t.Fatalf("forward scan: %v", err)
	}
	if next != len(wantEvents) {
		t.Errorf("forward scan made %d callbacks, reference %d", next, len(wantEvents))
	}
	if st != wantSt {
		t.Errorf("forward scan stats %+v, reference %+v", st, wantSt)
	}

	wantOrder, wantRoot, wantSt := refFold(db, recs, lo, hi)
	next = 0
	combine := func(first, second *int64, rec Record, v int64) int64 {
		if (next >= len(wantOrder) || v != wantOrder[next]) && !t.Failed() {
			t.Errorf("backward fold visit %d is node %d, not the reference's", next, v)
		}
		next++
		return foldOf(first, second, rec, v)
	}
	var root int64
	if whole {
		root, st, err = FoldBottomUp(ctx, db, combine)
	} else {
		root, st, err = foldRange(ctx, db, lo, hi, combine)
	}
	if err != nil {
		t.Fatalf("backward fold: %v", err)
	}
	if next != len(wantOrder) {
		t.Errorf("backward fold visited %d nodes, reference %d", next, len(wantOrder))
	}
	if st != wantSt {
		t.Errorf("backward fold stats %+v, reference %+v", st, wantSt)
	}
	if root != wantRoot {
		t.Errorf("backward fold root value %d, reference %d", root, wantRoot)
	}
}

// checkWindowPasses holds the two raw passes over [lo, hi) to the records:
// windows and holes arrive in order and cover the range exactly, a window
// never spans a hole, is never empty and never longer than WindowNodes,
// its bytes are the records of the nodes it names, and the byte columns
// match the reference's — each pass once reading every gap and once with
// the database's index, serving the gaps whose every node roots an entry
// from it.
func checkWindowPasses(t *testing.T, db *DB, recs []Record, lo, hi int64, skip []Extent, want ScanStats) {
	t.Helper()
	ctx := context.Background()
	ix, err := db.Index(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	served := servedStats(db, ix, lo, hi, skip)
	served.Bytes, served.PhysicalBytes = want.Bytes, want.PhysicalBytes-served.PhysicalBytes
	for _, pass := range []struct {
		forward bool
		ix      *SubtreeIndex
		want    ScanStats
	}{
		{true, nil, ScanStats{Bytes: want.Bytes, PhysicalBytes: want.PhysicalBytes}},
		{false, nil, ScanStats{Bytes: want.Bytes, PhysicalBytes: want.PhysicalBytes}},
		{true, ix, served},
		{false, ix, served},
	} {
		forward := pass.forward
		at, si := lo, 0 // the node the pass stands at, the next hole
		if !forward {
			at, si = hi, len(skip)-1
		}
		hole := func(x Extent) error {
			if si < 0 || si >= len(skip) || x != skip[si] {
				return fmt.Errorf("hole %+v is not the skip list's next", x)
			}
			if forward {
				if x.Root != at {
					return fmt.Errorf("hole %+v reported at node %d", x, at)
				}
				at, si = x.End(), si+1
			} else {
				if x.End() != at {
					return fmt.Errorf("hole %+v reported at node %d", x, at)
				}
				at, si = x.Root, si-1
			}
			return nil
		}
		window := func(first int64, b []byte) error {
			n := int64(len(b) / NodeSize)
			if n == 0 || n > WindowNodes || len(b)%NodeSize != 0 {
				return fmt.Errorf("window of %d bytes at node %d", len(b), first)
			}
			if forward && first != at || !forward && first+n != at {
				return fmt.Errorf("window [%d,%d) handed out at node %d", first, first+n, at)
			}
			if si >= 0 && si < len(skip) && first < skip[si].End() && skip[si].Root < first+n {
				return fmt.Errorf("window [%d,%d) spans the hole %+v", first, first+n, skip[si])
			}
			for i := int64(0); i < n; i++ {
				if binary.BigEndian.Uint16(b[i*NodeSize:]) != recs[first+i].Encode() {
					return fmt.Errorf("window [%d,%d) does not hold node %d's record", first, first+n, first+i)
				}
			}
			at = first
			if forward {
				at = first + n
			}
			return nil
		}
		var st ScanStats
		var err error
		if forward {
			err = db.ForwardWindows(ctx, lo, hi, skip, pass.ix, &st, hole, window)
		} else {
			err = db.BackwardWindows(ctx, lo, hi, skip, pass.ix, &st, hole, window)
		}
		if err != nil {
			t.Fatalf("window pass, forward=%v, index %v: %v", forward, pass.ix != nil, err)
		}
		if forward && (at != hi || si != len(skip)) || !forward && (at != lo || si != -1) {
			t.Errorf("window pass, forward=%v, index %v: ended at node %d with hole %d next", forward, pass.ix != nil, at, si)
		}
		if st != pass.want {
			t.Errorf("window pass, forward=%v, index %v: stats %+v, reference %+v", forward, pass.ix != nil, st, pass.want)
		}
	}
}

// servedStats is the reference of what an index serves a pass over
// [lo, hi) with holes skip: the bytes (IndexBytes) and the physical span
// (PhysicalBytes) of every gap whose every node roots an entry of ix.
func servedStats(db *DB, ix *SubtreeIndex, lo, hi int64, skip []Extent) ScanStats {
	var st ScanStats
	gap := func(a, b int64) {
		for v := a; v < b; v++ {
			if _, ok := ix.Lookup(v); !ok {
				return
			}
		}
		st.IndexBytes += (b - a) * NodeSize
		st.PhysicalBytes += db.PhysSpan(a, b)
	}
	at := lo
	for _, x := range skip {
		gap(at, x.Root)
		at = x.End()
	}
	gap(at, hi)
	return st
}

func TestBlockScansMatchPerRecordReference(t *testing.T) {
	for _, W := range []int64{WindowNodes, readNodes} {
		testBlockScans(t, W)
	}
}

// testBlockScans lays extents and gaps out around multiples of W nodes.
func testBlockScans(t *testing.T, W int64) {
	layouts := []struct {
		name  string
		blobs []int64
	}{
		{"N=W-1", []int64{W - 3, 0}},
		{"N=W", []int64{W - 2, 0}},
		{"N=W+1, extent ends on the boundary", []int64{W - 1, 0}},
		{"extent starts on the boundary", []int64{W - 2, 5, 0}},
		{"single-node gaps around a window-sized extent", []int64{3, 3, 3, 3, 3, 3, 3, 3, W, 3, 3, 3, 3, 0}},
		{"three windows", []int64{W + 7, W - 9, 11}},
	}
	rng := rand.New(rand.NewSource(14))
	for _, lay := range layouts {
		// Backward windows are laid from the end of each region, so every
		// layout also runs mirrored.
		mirrored := make([]int64, len(lay.blobs))
		for i, b := range lay.blobs {
			mirrored[len(mirrored)-1-i] = b
		}
		for _, blobs := range [][]int64{lay.blobs, mirrored} {
			db, recs, exts := spineDB(t, rng, blobs)
			for _, keep := range []func(i int) bool{
				func(int) bool { return false },
				func(int) bool { return true },
				func(i int) bool { return i%2 == 1 },
			} {
				var skip []Extent
				for i, x := range exts {
					if keep(i) {
						skip = append(skip, x)
					}
				}
				t.Run(fmt.Sprintf("W=%d/%s/%v/skip=%d", W, lay.name, blobs[0], len(skip)), func(t *testing.T) {
					checkScans(t, db, recs, 0, db.N, skip, true)
					// The second spine node's subtree is the rest of the
					// spine: a chunk with the later blobs strictly inside.
					if second := 1 + blobs[0]; second < db.N {
						var inner []Extent
						for _, x := range skip {
							if x.Root > second {
								inner = append(inner, x)
							}
						}
						checkScans(t, db, recs, second, db.N, inner, false)
					}
				})
			}
		}
	}
}

// TestBlockScansCompressed repeats the three-window layout on a
// block-compressed copy whose 4 KB blocks are much smaller than a window:
// PhysicalBytes must still count exactly the blocks each gap touches.
func TestBlockScansCompressed(t *testing.T) {
	const W = readNodes
	db, recs, exts := spineDB(t, rand.New(rand.NewSource(15)), []int64{W + 7, W - 9, 11})
	db.Close()
	if _, err := CompressInPlace(db.Base, CodecLZ, 4096); err != nil {
		t.Fatal(err)
	}
	zdb, err := Open(db.Base)
	if err != nil {
		t.Fatal(err)
	}
	defer zdb.Close()
	if _, ok := zdb.Compression(); !ok {
		t.Fatal("database did not compress")
	}
	for _, skip := range [][]Extent{nil, exts, exts[1:2]} {
		checkScans(t, zdb, recs, 0, zdb.N, skip, true)
	}
}

// TestScanCancelMidWindow cancels from inside a callback, deep in a
// window the loop has already read: the scan must still notice within
// cancelEvery nodes and report ctx.Err().
func TestScanCancelMidWindow(t *testing.T) {
	db, _, _ := spineDB(t, rand.New(rand.NewSource(16)), []int64{4 * cancelEvery, 0})
	if db.N*NodeSize > defaultBufSize {
		t.Fatalf("database of %d nodes does not fit one window", db.N)
	}
	const cancelAt = cancelEvery + cancelEvery/2
	for _, forward := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		step := func() {
			seen++
			if seen == cancelAt {
				cancel()
			}
		}
		var err error
		if forward {
			_, err = ScanTopDown(ctx, db, func(v int64, rec Record, parent *int32, k int) (int32, error) {
				step()
				return 0, nil
			})
		} else {
			_, _, err = FoldBottomUp(ctx, db, func(first, second *int32, rec Record, v int64) int32 {
				step()
				return 0
			})
		}
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("forward=%v: error %v, want context.Canceled", forward, err)
		}
		if late := seen - cancelAt; late < 0 || late > cancelEvery {
			t.Errorf("forward=%v: scan ran %d nodes past the cancellation, want at most %d", forward, late, cancelEvery)
		}
	}
}
