// Package closefixture exercises the closecheck analyzer: loaded under an
// arb/internal/... import path so the library-scope rule applies.
package closefixture

import (
	"os"

	"arb/internal/storage"
)

// leaksFile opens a file and only reads it; nothing ever closes it.
func leaksFile(path string) (int64, error) {
	f, err := os.Open(path) // want "os.Open result is never closed"
	if err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// closesFile is the clean counterpart.
func closesFile(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// leaksReader abandons a pooled backward reader: its buffers never
// return to the pool.
func leaksReader(f *os.File, end int64) error {
	br, err := storage.NewBackwardReader(f, end, 4) // want "storage.NewBackwardReader result is never closed"
	if err != nil {
		return err
	}
	_, err = br.Next()
	return err
}

// releasesReader hands the buffers back.
func releasesReader(f *os.File, end int64) error {
	br, err := storage.NewBackwardReader(f, end, 4)
	if err != nil {
		return err
	}
	defer br.Release()
	_, err = br.Next()
	return err
}

// returnsReader transfers ownership to the caller.
func returnsReader(f *os.File, end int64) (*storage.BackwardReader, error) {
	return storage.NewBackwardReader(f, end, 4)
}

// handsOff passes the resource to another function, which owns it now.
func handsOff(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	consume(f)
	return nil
}

func consume(f *os.File) { f.Close() }

// storesReader parks the resource in a struct; the struct's owner closes.
type scanState struct {
	br *storage.BackwardReader
}

func storesReader(f *os.File, end int64) (*scanState, error) {
	br, err := storage.NewBackwardReader(f, end, 4)
	if err != nil {
		return nil, err
	}
	return &scanState{br: br}, nil
}

// leaksScratch creates an anonymous scratch file and never closes it: on
// disk the file outlives the function.
func leaksScratch(db *storage.DB) error {
	f, err := db.CreateScratch(db.N * storage.MaskSize) // want "storage.DB.CreateScratch result is never closed"
	if err != nil {
		return err
	}
	_, err = f.WriteAt(make([]byte, 2), 0)
	return err
}

// closesScratch is the clean counterpart.
func closesScratch(db *storage.DB) error {
	f, err := db.CreateScratch(db.N * storage.MaskSize)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(make([]byte, 2), 0)
	return err
}
