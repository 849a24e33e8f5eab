package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"arb/internal/tmnf"
)

// PathRegex is one of the paper's benchmark regular expressions
// (Section 6.2): always of the form w1.w2*.w3, where the wi are nonempty
// words over a tag alphabet. Its size is |w1| + |w2| + |w3|.
type PathRegex struct {
	W1, W2, W3 []string
}

// RandomPathRegex draws a regex of exactly the given size (>= 3) over the
// alphabet, splitting the size randomly between the three words with each
// at least one symbol, as in the paper's experiments.
func RandomPathRegex(rng *rand.Rand, size int, alphabet []string) PathRegex {
	if size < 3 {
		panic(fmt.Sprintf("workload: regex size %d < 3", size))
	}
	// Choose |w1|, |w2| >= 1 with |w3| = size - |w1| - |w2| >= 1.
	n1 := 1 + rng.Intn(size-2)
	n2 := 1 + rng.Intn(size-n1-1)
	n3 := size - n1 - n2
	word := func(n int) []string {
		w := make([]string, n)
		for i := range w {
			w[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return w
	}
	return PathRegex{W1: word(n1), W2: word(n2), W3: word(n3)}
}

// Size returns |w1| + |w2| + |w3|.
func (r PathRegex) Size() int { return len(r.W1) + len(r.W2) + len(r.W3) }

// String renders the regex in the paper's notation, e.g.
// "S.VP.(NP.PP)*.NP".
func (r PathRegex) String() string {
	return fmt.Sprintf("%s.(%s)*.%s",
		strings.Join(r.W1, "."), strings.Join(r.W2, "."), strings.Join(r.W3, "."))
}

// The three R steps of the paper's benchmark threads. RTreebank walks to
// a child in the document tree (top-down); RFlat walks to the previous
// sibling (bottom-up in the right-deep flat tree); RInfix walks to the
// in-order predecessor in the direct binary infix tree (sideways
// caterpillar, Section 6.2 thread 3).
const (
	RTreebank = "FirstChild.NextSibling*"
	RFlat     = "invNextSibling"
	RInfix    = "(FirstChild.SecondChild*.-HasSecondChild | -HasFirstChild.invFirstChild*.invSecondChild)"
)

// TMNFSource renders the single-rule Arb program that matches the regex
// with the given R step, marking the endpoint of each matching walk:
//
//	QUERY :- V.Label[w1_1].R.Label[w1_2]. ... (R.Label[w2_1]...)* ... ;
func (r PathRegex) TMNFSource(rstep string) string {
	var parts []string
	for i, s := range r.W1 {
		if i > 0 {
			parts = append(parts, rstep)
		}
		parts = append(parts, "Label["+s+"]")
	}
	var group []string
	for _, s := range r.W2 {
		group = append(group, rstep, "Label["+s+"]")
	}
	parts = append(parts, "("+strings.Join(group, ".")+")*")
	for _, s := range r.W3 {
		parts = append(parts, rstep, "Label["+s+"]")
	}
	return "QUERY :- V." + strings.Join(parts, ".") + ";"
}

// Program parses the TMNF rendering into a strict TMNF program with QUERY
// as the query predicate.
func (r PathRegex) Program(rstep string) (*tmnf.Program, error) {
	return tmnf.Parse(r.TMNFSource(rstep))
}
