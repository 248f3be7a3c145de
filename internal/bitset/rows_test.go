package bitset

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// randomRowPair builds two rows of n bits with the given fill densities,
// returning the rows plus reference Sets with identical contents.
func randomRowPair(rng *rand.Rand, n int, pa, pb float64) (a, b []uint64, sa, sb *Set) {
	a = make([]uint64, RowWords(n))
	b = make([]uint64, RowWords(n))
	sa, sb = New(n), New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < pa {
			a[i>>6] |= 1 << uint(i&63)
			_ = sa.Add(i)
		}
		if rng.Float64() < pb {
			b[i>>6] |= 1 << uint(i&63)
			_ = sb.Add(i)
		}
	}
	return a, b, sa, sb
}

func TestRowOpsMatchSetSemantics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 9))
	for _, n := range []int{1, 3, 63, 64, 65, 200, 513} {
		a, b, sa, sb := randomRowPair(rng, n, 0.4, 0.3)
		if got, want := RowAnyAndNot(a, b), sa.CountNotIn(sb) > 0; got != want {
			t.Fatalf("n=%d RowAnyAndNot = %v, want %v", n, got, want)
		}
		if got, want := RowAndNotCount(a, b), sa.CountNotIn(sb); got != want {
			t.Fatalf("n=%d RowAndNotCount = %d, want %d", n, got, want)
		}
		var want []int
		for i := 0; i < n; i++ {
			if RowHas(a, i) != sa.Has(i) {
				t.Fatalf("n=%d RowHas(%d) mismatch", n, i)
			}
			if sa.Has(i) {
				want = append(want, i)
			}
		}
		if got := RowAppendIndices(nil, a); !slices.Equal(got, want) {
			t.Fatalf("n=%d RowAppendIndices = %v, want %v", n, got, want)
		}
	}
}

func TestRowSelectAndNot(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 7))
	for _, n := range []int{1, 64, 130, 400} {
		a, b, sa, sb := randomRowPair(rng, n, 0.5, 0.4)
		var want []int
		for i := 0; i < n; i++ {
			if sa.Has(i) && !sb.Has(i) {
				want = append(want, i)
			}
		}
		for k, idx := range want {
			if got := RowSelectAndNot(a, b, k); got != idx {
				t.Fatalf("n=%d select %d = %d, want %d", n, k, got, idx)
			}
		}
		if got := RowSelectAndNot(a, b, len(want)); got != -1 {
			t.Fatalf("n=%d select past end = %d, want -1", n, got)
		}
	}
}

func TestRowFillClearIntersect(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 200} {
		row := make([]uint64, RowWords(n))
		RowFill(row, n)
		if got := len(RowAppendIndices(nil, row)); got != n {
			t.Fatalf("n=%d fill count = %d", n, got)
		}
		// Tail bits beyond n must stay clear so binary ops stay exact.
		for i := n; i < len(row)*64; i++ {
			if RowHas(row, i) {
				t.Fatalf("n=%d tail bit %d set after RowFill", n, i)
			}
		}
		RowClear(row)
		if got := len(RowAppendIndices(nil, row)); got != 0 {
			t.Fatalf("n=%d clear count = %d", n, got)
		}
	}
}
