package chunked

import (
	"slices"
	"testing"
)

// TestListMatchesSlice grows a List across several chunk boundaries and
// checks every accessor against a plain slice holding the same records.
func TestListMatchesSlice(t *testing.T) {
	var l List[int]
	if l.Len() != 0 || l.Slice() != nil {
		t.Fatal("zero List is not empty")
	}
	var model []int
	for i := 0; i < 3*chunkLen+7; i++ {
		l.Append(i * 3)
		model = append(model, i*3)
	}
	if l.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(model))
	}
	for i, want := range model {
		if got := *l.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
	if !slices.Equal(l.Slice(), model) {
		t.Fatal("Slice differs from the model")
	}
	for _, r := range [][2]int{{0, 0}, {5, 5}, {0, 1}, {chunkLen - 1, chunkLen + 1}, {3, 2*chunkLen + 9}, {chunkLen, len(model)}} {
		got := l.AppendRange([]int{-1}, r[0], r[1])
		if want := append([]int{-1}, model[r[0]:r[1]]...); !slices.Equal(got, want) {
			t.Fatalf("AppendRange(%d, %d) = %d records, want %d", r[0], r[1], len(got), len(want))
		}
	}

	// A clone is independent in both directions.
	c := l.Clone()
	*l.At(chunkLen) = -5
	c.Append(42)
	if *c.At(chunkLen) != model[chunkLen] || l.Len() != len(model) || c.Len() != len(model)+1 {
		t.Fatal("Clone shares storage with its source")
	}
}

// TestAppendMovesNothing pins the point of the chunked layout: a pointer
// to a stored record stays valid across later appends, and appends
// allocate only when a new chunk starts.
func TestAppendMovesNothing(t *testing.T) {
	var l List[[4]int]
	l.Append([4]int{1, 2, 3, 4})
	first := l.At(0)
	for i := 1; i < 2*chunkLen; i++ {
		l.Append([4]int{i})
	}
	if first != l.At(0) || *first != [4]int{1, 2, 3, 4} {
		t.Fatal("a stored record moved")
	}
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < chunkLen; i++ {
			l.Append([4]int{i})
		}
	}); n > 2 {
		t.Errorf("%d appends allocated %v times, want at most one chunk plus the directory", chunkLen, n)
	}
}
