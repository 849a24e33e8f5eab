package core

import (
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// Knobs are the package's size thresholds and its one-scan switch, which
// the external tests (package core_test) set through SetKnobs to run the
// prune, parallel and forced-two-scan paths on documents of a few thousand
// nodes.
type Knobs struct {
	ParMinNodes, ParMinTask       int64
	PruneMinNodes, PruneMinExtent int64
	OneScanOff                    bool
}

// SetKnobs installs k and returns the function that puts the previous
// knobs back.
func SetKnobs(k Knobs) (restore func()) {
	old := Knobs{parMinNodes, parMinTask, pruneMinNodes, pruneMinExtent, oneScanOff}
	set := func(k Knobs) {
		parMinNodes, parMinTask, pruneMinNodes, pruneMinExtent, oneScanOff = k.ParMinNodes, k.ParMinTask, k.PruneMinNodes, k.PruneMinExtent, k.OneScanOff
	}
	set(k)
	return func() { set(old) }
}

// CurrentKnobs returns the knobs in force.
func CurrentKnobs() Knobs {
	return Knobs{parMinNodes, parMinTask, pruneMinNodes, pruneMinExtent, oneScanOff}
}

// Lanes compiles progs over names as one batch's members, run without aux
// input, and returns the members of each lane the batch splits into.
func Lanes(names *tree.Names, progs ...*tmnf.Program) ([][]int, error) {
	members := make([]BatchMember, len(progs))
	for m, p := range progs {
		c, err := Compile(p)
		if err != nil {
			return nil, err
		}
		members[m] = BatchMember{E: NewEngine(c, names), AuxInSlot: -1, AuxOutSlot: -1}
	}
	var lanes [][]int
	for _, l := range lanesFor(members, nil, nil, nil) {
		lanes = append(lanes, l.members)
	}
	return lanes, nil
}

// Verdicts compiles prog over names and reports its one-scan verdict —
// whether its bottom-up states decide its selection, so that a run without
// aux input or marked output answers it in one backward scan — and its
// forward verdict: whether its records decide its bottom-up states, so
// that a run without aux input answers it in one forward scan.
func Verdicts(names *tree.Names, prog *tmnf.Program) (oneScan, forward bool, err error) {
	c, err := Compile(prog)
	if err != nil {
		return false, false, err
	}
	e := NewEngine(c, names)
	return e.OneScan(), e.Forward(), nil
}
