// Package chunked provides the append-only record store behind the
// observability layer's unbounded logs (the decision event log, the
// energy audit ledger). A fully observed race-to-idle run appends one
// record per reconfiguration — hundreds of thousands per simulated hour —
// and a flat slice pays for that with repeated grow-and-copy of an
// ever larger pointer-holding array plus twice its final size in garbage.
// A List stores the records in fixed-size chunks instead: appending
// never moves a stored record, and the only allocation is one chunk per
// chunkLen appends.
package chunked

// chunkShift sets the chunk length (1024 records): large enough that the
// chunk directory stays tiny, small enough that a short log wastes
// little.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// List is an append-only sequence of T in fixed-size chunks. The zero
// value is an empty list. Like the logs it backs, a List is not safe for
// concurrent use.
type List[T any] struct {
	chunks [][]T
	n      int
}

// Len returns the number of stored records.
func (l *List[T]) Len() int { return l.n }

// Append adds v at the end. It allocates only when the last chunk is full.
func (l *List[T]) Append(v T) {
	if l.n == len(l.chunks)<<chunkShift {
		//ecllint:allow hotpath one chunk per 1024 appends; stored records never move
		l.chunks = append(l.chunks, make([]T, chunkLen))
	}
	l.chunks[l.n>>chunkShift][l.n&chunkMask] = v
	l.n++
}

// At returns a pointer to the i-th record, valid for the list's lifetime.
// It panics if i is out of range.
func (l *List[T]) At(i int) *T {
	if i < 0 || i >= l.n {
		panic("chunked: index out of range")
	}
	return &l.chunks[i>>chunkShift][i&chunkMask]
}

// AppendRange appends the records [from, to) to dst in order and returns
// the extended slice.
func (l *List[T]) AppendRange(dst []T, from, to int) []T {
	for from < to {
		off := from & chunkMask
		end := min(off+to-from, chunkLen)
		dst = append(dst, l.chunks[from>>chunkShift][off:end]...)
		from += end - off
	}
	return dst
}

// Slice returns the records as one freshly allocated slice, or nil when
// the list is empty.
func (l *List[T]) Slice() []T {
	if l.n == 0 {
		return nil
	}
	return l.AppendRange(make([]T, 0, l.n), 0, l.n)
}

// Clone returns an independent deep copy.
func (l *List[T]) Clone() List[T] {
	c := List[T]{chunks: make([][]T, len(l.chunks)), n: l.n}
	for i, ch := range l.chunks {
		c.chunks[i] = append([]T(nil), ch...)
	}
	return c
}
