package storage

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"arb/internal/tree"
)

// withSyncHooks swaps the file- and directory-sync test hooks for the
// duration of a test (a nil argument keeps that hook), restoring them on
// cleanup.
func withSyncHooks(t *testing.T, file func(*os.File) error, open func(string) (*os.File, error), fsync func(*os.File) error) {
	t.Helper()
	origFile, origOpen, origFsync := fsyncFile, openDirForSync, fsyncDirFile
	if file != nil {
		fsyncFile = file
	}
	if open != nil {
		openDirForSync = open
	}
	if fsync != nil {
		fsyncDirFile = fsync
	}
	t.Cleanup(func() {
		fsyncFile, openDirForSync, fsyncDirFile = origFile, origOpen, origFsync
	})
}

// createIndexed creates a small database at base and returns its subtree
// index, the database closed again.
func createIndexed(t *testing.T, base string, depth int) *SubtreeIndex {
	t.Helper()
	names := tree.NewNames()
	db, err := CreateBinary(base, names, FullBinary(names, depth, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ix, err := db.Index(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestSyncDirCommitTable holds every WriteFile caller storage's tests
// reach to the commit contract. (a) A file sync that fails before the
// rename returns its error, leaves the committed path with its previous
// bytes (or absent), and leaves no temporary. (b) A commit syncs each
// file it commits, and its directory once per committed file: Create and
// CreateBinary commit three (.arb, .lab, .idx).
func TestSyncDirCommitTable(t *testing.T) {
	feed := func(ew *EventWriter) error {
		if err := ew.Begin("a"); err != nil {
			return err
		}
		if err := ew.Text([]byte("xy")); err != nil {
			return err
		}
		return ew.End()
	}
	rows := []struct {
		name  string
		path  string // the committed file (a) checks, relative to base
		prior bool   // base holds a database before the commit
		files int    // files the commit commits
		// commit prepares what the commit needs, then returns it.
		commit func(t *testing.T, base string) func() error
	}{
		{"WriteIndexFile", ".idx", true, 1, func(t *testing.T, base string) func() error {
			ix := createIndexed(t, filepath.Join(t.TempDir(), "other"), 6)
			return func() error { return WriteIndexFile(base+".idx", ix) }
		}},
		{"CompressInPlace", ".arb", true, 1, func(t *testing.T, base string) func() error {
			return func() error {
				_, err := CompressInPlace(base, CodecLZ, 0)
				return err
			}
		}},
		{"Create", ".arb", false, 3, func(t *testing.T, base string) func() error {
			return func() error {
				db, _, err := Create(base, feed, CreateOpts{})
				if err == nil {
					db.Close()
				}
				return err
			}
		}},
		{"CreateBinary", ".arb", true, 3, func(t *testing.T, base string) func() error {
			return func() error {
				names := tree.NewNames()
				db, err := CreateBinary(base, names, FullBinary(names, 3, "c"))
				if err == nil {
					db.Close()
				}
				return err
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name+"/failed-sync", func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "db")
			if row.prior {
				createIndexed(t, base, 8)
			}
			commit := row.commit(t, base)
			before, beforeErr := os.ReadFile(base + row.path)
			boom := errors.New("injected: file sync failed")
			withSyncHooks(t, func(*os.File) error { return boom }, nil, nil)
			if err := commit(); !errors.Is(err, boom) {
				t.Fatalf("error %v, want the injected sync failure", err)
			}
			after, afterErr := os.ReadFile(base + row.path)
			switch {
			case row.prior && (afterErr != nil || !bytes.Equal(after, before) || beforeErr != nil):
				t.Fatalf("%s changed by a failed commit (%v)", row.path, afterErr)
			case !row.prior && !os.IsNotExist(afterErr):
				t.Fatalf("%s exists after a failed commit (%v)", row.path, afterErr)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
				t.Fatalf("failed commit left temporaries: %v", tmps)
			}
		})
		t.Run(row.name+"/syncs", func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "db")
			if row.prior {
				createIndexed(t, base, 8)
			}
			commit := row.commit(t, base)
			files, dirs := 0, 0
			origFile, origOpen := fsyncFile, openDirForSync
			withSyncHooks(t, func(f *os.File) error {
				files++
				return origFile(f)
			}, func(d string) (*os.File, error) {
				dirs++
				return origOpen(d)
			}, nil)
			if err := commit(); err != nil {
				t.Fatal(err)
			}
			if files != row.files || dirs != row.files {
				t.Fatalf("synced %d files and the directory %d times, want %d of each", files, dirs, row.files)
			}
		})
	}
}

// TestSyncDirFailureSurfaces injects a failure opening the directory:
// the commit must report it rather than claim durability it does not
// have.
func TestSyncDirFailureSurfaces(t *testing.T) {
	base := filepath.Join(t.TempDir(), "db")
	ix := createIndexed(t, base, 6)
	boom := errors.New("injected: directory unreachable")
	withSyncHooks(t, nil, func(dir string) (*os.File, error) { return nil, boom }, nil)
	if err := WriteIndexFile(base+".idx", ix); !errors.Is(err, boom) {
		t.Fatalf("WriteIndexFile error = %v, want the injected sync failure", err)
	}
}

// TestSyncDirToleratesUnsupportedFsync covers filesystems that refuse
// fsync on a directory handle: the error is swallowed (the rename
// happened; durability is no worse than before) and the commit
// succeeds.
func TestSyncDirToleratesUnsupportedFsync(t *testing.T) {
	withSyncHooks(t, nil, nil, func(f *os.File) error {
		return errors.New("injected: EINVAL fsync on directory")
	})
	base := filepath.Join(t.TempDir(), "db")
	ix := createIndexed(t, base, 6)
	if err := WriteIndexFile(base+".idx", ix); err != nil {
		t.Fatalf("WriteIndexFile failed on ignorable fsync error: %v", err)
	}
	if _, err := ReadIndexFile(base + ".idx"); err != nil {
		t.Fatalf("committed sidecar unreadable: %v", err)
	}
}

// TestRemoveTempsSparesOtherFiles sweeps base's commit temporaries and
// nothing else: not its committed files, not the temporaries of a
// database whose name merely starts with base's, and not a live scratch
// file.
func TestRemoveTempsSparesOtherFiles(t *testing.T) {
	dir := t.TempDir()
	stray := []string{"db.arb.tmp1", "db.lab.tmp22", "db.idx.tmp3", "db.arbm.tmp4", "db.vlab.tmp5", "db-000007.seg.tmp6"}
	kept := []string{"db.arb", "db.idx", "db-000007.seg", "db2.arb.tmp1", "db-old.arb.tmp2", "db-2.arb.tmp3", "db-123.sta", "db.arb.tmpx"}
	for _, name := range append(append([]string{}, stray...), kept...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	RemoveTemps(filepath.Join(dir, "db"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	sort.Strings(kept)
	if !slices.Equal(left, kept) {
		t.Fatalf("after RemoveTemps: %v, want %v", left, kept)
	}
}

// TestSyncDirCreateDropsManifestFirst: Create over the base of a patched
// database removes the versioned store's manifest, and syncs the
// directory, before the first file of the new database is committed, so
// no crash leaves the old manifest beside new records. It then removes the
// store's name table and segments, and nothing of another database. A
// create whose feed fails removes none of them.
func TestSyncDirCreateDropsManifestFirst(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	createIndexed(t, base, 4)
	planted := []string{"db.arbm", "db.vlab", "db-000001.seg", "db-000012.seg"}
	kept := []string{"db-2-000001.seg", "db-old.seg", "db2.arbm", "db2-000001.seg"}
	for _, name := range append(append([]string{}, planted...), kept...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := CreateBinary(base, tree.NewNames(), func(RecordSink) error { return nil }); err == nil {
		t.Fatal("an empty feed created a database")
	}
	for _, name := range planted {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("a failed create removed the versioned store's %s", name)
		}
	}
	oldArb, err := os.ReadFile(base + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	var firstSync []string
	var arbAtSync []byte
	origOpen := openDirForSync
	withSyncHooks(t, nil, func(d string) (*os.File, error) {
		if firstSync == nil {
			entries, err := os.ReadDir(dir)
			if err != nil {
				return nil, err
			}
			firstSync = []string{}
			for _, e := range entries {
				firstSync = append(firstSync, e.Name())
			}
			arbAtSync, _ = os.ReadFile(base + ".arb")
		}
		return origOpen(d)
	}, nil)
	names := tree.NewNames()
	db, err := CreateBinary(base, names, FullBinary(names, 3, "c"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	// The first directory sync must be the manifest removal's: the
	// manifest gone, the old records still in place.
	if firstSync == nil || slices.Contains(firstSync, "db.arbm") || !bytes.Equal(arbAtSync, oldArb) {
		t.Fatalf("first directory sync saw %v and the old .arb %v, want the manifest gone and the old .arb",
			firstSync, bytes.Equal(arbAtSync, oldArb))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	want := append([]string{"db.arb", "db.idx", "db.lab"}, kept...)
	sort.Strings(want)
	if !slices.Equal(left, want) {
		t.Fatalf("after Create: %v, want %v", left, want)
	}
}
