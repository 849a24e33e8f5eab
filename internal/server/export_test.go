package server

import "time"

// Knobs are the server's fixed sizes, which the external tests (package
// server_test) set through SetKnobs: a gather window pinned long (or short)
// enough to decide whether a burst gathers, and batches and id lists small
// enough to count.
type Knobs struct {
	Window   time.Duration // the auto-tuner's seed, floor and ceiling at once
	MaxPlans int
	MaxIDs   int
}

// SetKnobs installs k, a zero field keeping its current value, and returns
// the function that puts the previous knobs back.
func SetKnobs(k Knobs) (restore func()) {
	seed, floor, ceil, bm, ids := windowSeed, windowFloor, windowCeil, batchMax, maxIDs
	if k.Window > 0 {
		windowSeed, windowFloor, windowCeil = k.Window, k.Window, k.Window
	}
	if k.MaxPlans > 0 {
		batchMax = k.MaxPlans
	}
	if k.MaxIDs > 0 {
		maxIDs = k.MaxIDs
	}
	return func() { windowSeed, windowFloor, windowCeil, batchMax, maxIDs = seed, floor, ceil, bm, ids }
}
