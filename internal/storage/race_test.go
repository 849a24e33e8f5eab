//go:build race

package storage

// raceEnabled reports a -race build, where sync.Pool drops a share of
// its Puts on purpose and allocation counts are not the program's.
const raceEnabled = true
