package storage

import (
	"os"
	"path/filepath"
	"regexp"
)

// Every file the library creates comes into being here, in one of two
// ways, and no other code creates or renames one.
//
//   - A committed file (WriteFile) is born a temporary <path>.tmp* beside
//     its path and becomes visible under path only by one rename, after
//     its bytes are synced; the directory is synced after the rename. A
//     reader therefore sees the old file or the whole new one, and a crash
//     leaves at most a stray temporary, which RemoveTemps sweeps.
//   - A scratch file (createTemp) is anonymous: a uniquely named
//     temporary beside a database, passed around by handle and removed by
//     its Close — a run's state file and aux-mask sidecars
//     (DB.CreateScratch) and Create's event file.

// tmpSuffix marks a commit temporary: WriteFile creates <path>.tmp*, where
// os.CreateTemp puts decimal digits for the star.
const tmpSuffix = ".tmp"

// WriteFile commits the file at path: write fills a fresh temporary beside
// it, which is synced, renamed over path, and its directory synced. On any
// error the temporary is removed and path keeps what it held (or stays
// absent).
func WriteFile(path string, write func(f *os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tmpSuffix+"*")
	if err != nil {
		return err
	}
	tmp, renamed := f.Name(), false
	defer func() {
		if !renamed {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		return err
	}
	if err := fsyncFile(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	renamed = true
	return syncDir(filepath.Dir(path))
}

// segSuffix is what follows a base's name in the name of a versioned
// store's segment: base-<n>.seg. segName matches it whole.
const segSuffix = `-[0-9]+\.seg`

var segName = regexp.MustCompile(`^` + segSuffix + `$`)

// tempName matches what follows a base's name in the name of a commit
// temporary of one of its files: base.<ext> (the database's .arb, .lab and
// .idx, a versioned store's .arbm and .vlab) or base-<n>.seg (a versioned
// store's segments).
var tempName = regexp.MustCompile(`^(` + segSuffix + `|\.[a-z]+)\` + tmpSuffix + `[0-9]+$`)

// RemoveTemps removes the commit temporaries WriteFile left beside base's
// files when a process died mid-commit. It is best-effort, and only for an
// opener that knows no commit to base is in flight: a versioned store's
// Open, whose writers commit only through it.
func RemoveTemps(base string) {
	prefix := filepath.Base(base)
	matches, err := filepath.Glob(filepath.Join(filepath.Dir(base), prefix+"*"+tmpSuffix+"*"))
	if err != nil {
		return
	}
	for _, path := range matches {
		if tempName.MatchString(filepath.Base(path)[len(prefix):]) {
			os.Remove(path)
		}
	}
}

// removeVersioned removes the versioned store (internal/vstore) a patched
// database keeps beside base: its base.arbm manifest first, with the
// directory synced, so that no crash can pair the old manifest with
// records committed afterwards; then its base.vlab name table and its
// base-<n>.seg segments, which nothing reads without the manifest.
func removeVersioned(base string) error {
	if err := os.Remove(base + ".arbm"); err == nil {
		if err := syncDir(filepath.Dir(base)); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if err := os.Remove(base + ".vlab"); err != nil && !os.IsNotExist(err) {
		return err
	}
	prefix := filepath.Base(base)
	segs, err := filepath.Glob(filepath.Join(filepath.Dir(base), prefix+"-*.seg"))
	if err != nil {
		return err
	}
	for _, path := range segs {
		if segName.MatchString(filepath.Base(path)[len(prefix):]) {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// createTemp creates an anonymous scratch file <base>-*<ext> beside the
// database base. Closing it removes it.
func createTemp(base, ext string) (tempFile, error) {
	f, err := os.CreateTemp(filepath.Dir(base), filepath.Base(base)+"-*"+ext)
	if err != nil {
		return tempFile{}, err
	}
	return tempFile{f}, nil
}

// tempFile is an anonymous scratch file on disk: closing it removes it.
type tempFile struct{ *os.File }

func (f tempFile) Close() error {
	err := f.File.Close()
	if rerr := os.Remove(f.Name()); err == nil {
		err = rerr
	}
	return err
}

// syncDir fsyncs a directory so a preceding rename in it survives a
// crash. POSIX only guarantees an atomic rename is durable once the
// containing directory's metadata reaches disk; syncing just the file
// leaves the commit window open.
//
// Some filesystems refuse fsync on a directory handle opened read-only
// (EINVAL/EBADF on certain network mounts); those errors are ignored —
// the rename itself still happened, durability is simply no worse than
// before.
func syncDir(dir string) error {
	f, err := openDirForSync(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fsyncDirFile(f); err != nil {
		return nil //nolint:nilerr // see doc comment: fsync-on-dir unsupported here
	}
	return nil
}

// Test hooks: tests inject failures to prove every commit reaches the file
// sync and the directory sync.
var (
	fsyncFile      = func(f *os.File) error { return f.Sync() }
	openDirForSync = func(dir string) (*os.File, error) { return os.Open(dir) }
	fsyncDirFile   = func(f *os.File) error { return f.Sync() }
)
