// Package workload generates the datasets and benchmark queries of the
// paper's experimental evaluation (Section 6): the ACGT synthetic DNA
// sequence in its flat and infix tree versions, Treebank-like constituency
// trees, Swissprot-like protein records, and the random regular path
// queries of Section 6.2 in their three thread variants (top-down on
// Treebank, bottom-up on ACGT-flat, sideways-caterpillar on ACGT-infix).
//
// Penn Treebank and Swissprot themselves cannot be shipped (one is
// LDC-licensed, the other a one-off XML-ization), so the generators here
// produce synthetic documents matching the paper's structural statistics —
// tag counts, element/character node ratios, tree shapes — which is what
// the benchmarked code paths exercise; the benchmark queries are random
// path expressions over a four-tag grammar alphabet in the paper too.
package workload

import (
	"math/rand"

	"arb/internal/storage"
	"arb/internal/tree"
)

// ACGTAlphabet is the DNA alphabet of the paper's bogus sequence database.
var ACGTAlphabet = []string{"A", "C", "G", "T"}

// SequenceRoot is the tag of the root element above a sequence tree. (The
// paper labels its roots within the 4-letter alphabet; we use a separate
// tag so that walks cannot accidentally start at the root, at the price
// of reporting 5 tags instead of 4 in the Figure 5 reproduction.)
const SequenceRoot = "seq"

// Sequence generates a reproducible random DNA sequence of the given
// length over {A, C, G, T}. The paper uses length 2^25 - 1.
func Sequence(seed int64, length int) []byte {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]byte, length)
	const acgt = "ACGT"
	for i := range seq {
		seq[i] = acgt[rng.Intn(4)]
	}
	return seq
}

// ScaledSequenceLength is the sequence length for a fraction of the
// paper's 2^25-1 symbols: the largest 2^k-1 (k >= 10) not above
// scale·2^25, so the infix tree stays complete. Scales of 1 and above
// give the paper's length.
func ScaledSequenceLength(scale float64) int {
	bits := 25
	for scale < 1 && bits > 10 && float64(int64(1)<<25)*scale < float64(int64(1)<<bits) {
		bits--
	}
	return 1<<bits - 1
}

// acgtNames returns a name table with the root and the four symbol tags
// interned, plus the labels for A, C, G, T in symbol order.
func acgtNames() (*tree.Names, tree.Label, [4]tree.Label) {
	ns := tree.NewNames()
	root := ns.MustIntern(SequenceRoot)
	var syms [4]tree.Label
	for i, s := range ACGTAlphabet {
		syms[i] = ns.MustIntern(s)
	}
	return ns, root, syms
}

func symLabel(syms [4]tree.Label, c byte) tree.Label {
	switch c {
	case 'A':
		return syms[0]
	case 'C':
		return syms[1]
	case 'G':
		return syms[2]
	case 'T':
		return syms[3]
	}
	panic("workload: symbol outside ACGT")
}

// FlatTree builds the ACGT-flat document in memory: a root element with
// one child element per symbol, in sequence order (Figure 4(a)). In the
// first-child/next-sibling encoding this is an extremely right-deep
// binary tree: the children form one long NextSibling chain.
func FlatTree(seq []byte) *tree.Tree {
	ns, root, syms := acgtNames()
	t := tree.New(ns)
	r := t.AddNode(root)
	prev := tree.None
	for _, c := range seq {
		n := t.AddNode(symLabel(syms, c))
		if prev == tree.None {
			t.SetFirst(r, n)
		} else {
			t.SetSecond(prev, n)
		}
		prev = n
	}
	return t
}

// CreateFlatDB streams the ACGT-flat database directly to disk in its
// binary encoding, without materialising the tree: the preorder of the
// FCNS encoding is root, then the symbols in sequence order.
func CreateFlatDB(base string, seq []byte) (*storage.DB, error) {
	ns, root, syms := acgtNames()
	return storage.CreateBinary(base, ns, func(emit storage.RecordSink) error {
		if err := emit(root, len(seq) > 0, false); err != nil {
			return err
		}
		for i, c := range seq {
			if err := emit(symLabel(syms, c), false, i+1 < len(seq)); err != nil {
				return err
			}
		}
		return nil
	})
}

// InfixTree builds the ACGT-infix document in memory: below a separate
// root node, the sequence as a binary infix tree (Figure 4(b)) — the
// middle symbol at the top, the left half as the first subtree, the right
// half as the second. For lengths 2^k - 1 the tree is complete with depth
// k. This uses the paper's alternative binary tree model: first/second
// children are the infix tree's own left/right children.
func InfixTree(seq []byte) *tree.Tree {
	ns, root, syms := acgtNames()
	t := tree.New(ns)
	r := t.AddNode(root)
	if len(seq) == 0 {
		return t
	}
	var build func(lo, hi int) tree.NodeID
	build = func(lo, hi int) tree.NodeID {
		mid := (lo + hi) / 2
		v := t.AddNode(symLabel(syms, seq[mid]))
		if lo < mid {
			t.SetFirst(v, build(lo, mid-1))
		}
		if mid < hi {
			t.SetSecond(v, build(mid+1, hi))
		}
		return v
	}
	t.SetFirst(r, build(0, len(seq)-1))
	return t
}

// CreateInfixDB streams the ACGT-infix database directly to disk: the
// preorder of the infix tree is emitted with an explicit (lo, hi) stack,
// so memory stays logarithmic in the sequence length.
func CreateInfixDB(base string, seq []byte) (*storage.DB, error) {
	ns, root, syms := acgtNames()
	return storage.CreateBinary(base, ns, func(emit storage.RecordSink) error {
		if err := emit(root, len(seq) > 0, false); err != nil {
			return err
		}
		if len(seq) == 0 {
			return nil
		}
		type span struct{ lo, hi int }
		stack := []span{{0, len(seq) - 1}}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			mid := (s.lo + s.hi) / 2
			hasFirst := s.lo < mid
			hasSecond := mid < s.hi
			if err := emit(symLabel(syms, seq[mid]), hasFirst, hasSecond); err != nil {
				return err
			}
			// Preorder: first subtree before second, so push second first.
			if hasSecond {
				stack = append(stack, span{mid + 1, s.hi})
			}
			if hasFirst {
				stack = append(stack, span{s.lo, mid - 1})
			}
		}
		return nil
	})
}
