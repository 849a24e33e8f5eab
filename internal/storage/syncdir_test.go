package storage

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arb/internal/tree"
)

// withSyncDirHooks swaps the directory-sync test hooks for the duration
// of a test, restoring them on cleanup.
func withSyncDirHooks(t *testing.T, open func(string) (*os.File, error), fsync func(*os.File) error) {
	t.Helper()
	origOpen, origFsync := openDirForSync, fsyncDirFile
	if open != nil {
		openDirForSync = open
	}
	if fsync != nil {
		fsyncDirFile = fsync
	}
	t.Cleanup(func() {
		openDirForSync, fsyncDirFile = origOpen, origFsync
	})
}

// TestSyncDirRunsOnCommitPaths proves the rename-commit paths actually
// reach the directory fsync: without it a crash after the rename can
// lose the committed file entirely (the durability bug this PR fixes).
func TestSyncDirRunsOnCommitPaths(t *testing.T) {
	calls := 0
	origOpen := openDirForSync
	withSyncDirHooks(t, func(dir string) (*os.File, error) {
		calls++
		return origOpen(dir)
	}, nil)

	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	names := tree.NewNames()
	db, err := CreateBinary(base, names, FullBinary(names, 8, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.Index(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	calls = 0
	if err := WriteIndexFile(base+".idx", ix, nil); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("WriteIndexFile synced the directory %d times, want 1", calls)
	}

	// CompressInPlace commits twice: the container rename and the
	// rebuilt sidecar.
	calls = 0
	if _, err := CompressInPlace(base, CodecLZ, 0); err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Fatalf("CompressInPlace synced the directory %d times, want >= 2", calls)
	}
}

// TestSyncDirFailureSurfaces injects a failure opening the directory:
// the commit must report it rather than claim durability it does not
// have.
func TestSyncDirFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	names := tree.NewNames()
	db, err := CreateBinary(base, names, FullBinary(names, 6, "a"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.Index(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected: directory unreachable")
	withSyncDirHooks(t, func(dir string) (*os.File, error) { return nil, boom }, nil)
	if err := WriteIndexFile(base+".idx", ix, nil); !errors.Is(err, boom) {
		t.Fatalf("WriteIndexFile error = %v, want the injected sync failure", err)
	}
}

// TestSyncDirToleratesUnsupportedFsync covers filesystems that refuse
// fsync on a directory handle: the error is swallowed (the rename
// happened; durability is no worse than before) and the commit
// succeeds.
func TestSyncDirToleratesUnsupportedFsync(t *testing.T) {
	withSyncDirHooks(t, nil, func(f *os.File) error {
		return errors.New("injected: EINVAL fsync on directory")
	})

	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	names := tree.NewNames()
	db, err := CreateBinary(base, names, FullBinary(names, 6, "a"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.Index(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteIndexFile(base+".idx", ix, nil); err != nil {
		t.Fatalf("WriteIndexFile failed on ignorable fsync error: %v", err)
	}
	if _, _, err := ReadIndexFileInfo(base + ".idx"); err != nil {
		t.Fatalf("committed sidecar unreadable: %v", err)
	}
	if !strings.HasSuffix(base, "db") {
		t.Fatalf("unexpected base %q", base)
	}
}
