package arb

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestSessionPinsGauge pins the runtime counterpart of the snappin
// analyzer: acquire raises the session's pin gauge and the store's
// pins stat, release lowers both, double release stays idempotent, and
// a quiescent session reads zero.
func TestSessionPinsGauge(t *testing.T) {
	doc, err := ParseXML(strings.NewReader("<a><b/><c/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "db")
	db, err := CreateDBFromTree(base, doc)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	sess, err := OpenVersionedSession(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if n := sess.Pins(); n != 0 {
		t.Fatalf("fresh session holds %d pins, want 0", n)
	}

	_, _, _, release1, _ := sess.acquire()
	_, _, _, release2, _ := sess.acquire()
	if n := sess.Pins(); n != 2 {
		t.Fatalf("after two acquires Pins() = %d, want 2", n)
	}
	st, ok := sess.StoreStats()
	if !ok {
		t.Fatal("versioned session must report store stats")
	}
	if st.Pins != 2 || st.Snapshots != 2 {
		t.Fatalf("store stats report pins=%d snapshots=%d, want 2/2", st.Pins, st.Snapshots)
	}

	release1()
	release1() // idempotent: the second call must not underflow
	if n := sess.Pins(); n != 1 {
		t.Fatalf("after releasing one pin twice Pins() = %d, want 1", n)
	}
	release2()
	if n := sess.Pins(); n != 0 {
		t.Fatalf("after releasing everything Pins() = %d, want 0", n)
	}
	if st, _ := sess.StoreStats(); st.Pins != 0 {
		t.Fatalf("quiescent store reports pins=%d, want 0", st.Pins)
	}
}
