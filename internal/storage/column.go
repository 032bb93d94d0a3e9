package storage

import "fmt"

// Column is an append-only typed column of 64-bit integers, the storage
// primitive behind column scans (the paper's memory-bandwidth-bound access
// pattern). Values are stored densely; row identifiers are positions.
type Column struct {
	name string
	data []int64
}

// NewColumn creates an empty column with the given name and capacity hint.
func NewColumn(name string, capacity int) *Column {
	return &Column{name: name, data: make([]int64, 0, capacity)}
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Len returns the number of values.
func (c *Column) Len() int { return len(c.data) }

// Append adds a value and returns its row position.
func (c *Column) Append(v int64) int {
	c.data = append(c.data, v)
	return len(c.data) - 1
}

// Get returns the value at a row position.
func (c *Column) Get(row int) int64 { return c.data[row] }

// Window returns the n values starting at row start for reading: a
// subslice of the column's storage whose capacity is clipped to its
// length, so an append through it can never overwrite the rows that
// follow (writes go through Set). Scan
// kernels take a window once and range over it, paying one bounds check
// per window instead of one per row (Get). It panics unless
// 0 <= start, 0 <= n and start+n <= Len().
func (c *Column) Window(start, n int) []int64 {
	if start < 0 || n < 0 || start > len(c.data)-n {
		panic(fmt.Sprintf("storage: column %s: window [%d, %d+%d) out of range [0, %d)", c.name, start, start, n, len(c.data)))
	}
	return c.data[start : start+n : start+n]
}

// Set overwrites the value at a row position.
func (c *Column) Set(row int, v int64) { c.data[row] = v }

// Predicate selects rows by value.
type Predicate func(int64) bool

// Between returns a predicate selecting lo <= v <= hi.
func Between(lo, hi int64) Predicate {
	return func(v int64) bool { return v >= lo && v <= hi }
}

// EqualTo returns a predicate selecting v == x.
func EqualTo(x int64) Predicate {
	return func(v int64) bool { return v == x }
}

// Scan streams every value through the predicate and returns the matching
// row positions. A nil predicate matches everything.
func (c *Column) Scan(p Predicate, out []int) []int {
	for row, v := range c.data {
		if p == nil || p(v) {
			out = append(out, row)
		}
	}
	return out
}

// ScanAggregate computes count, sum, min, and max over the rows matching
// the predicate in one pass (the shape of SSB's aggregation queries).
func (c *Column) ScanAggregate(p Predicate) (count int, sum, min, max int64) {
	first := true
	for _, v := range c.data {
		if p != nil && !p(v) {
			continue
		}
		count++
		sum += v
		if first || v < min {
			min = v
		}
		if first || v > max {
			max = v
		}
		first = false
	}
	return count, sum, min, max
}

// SumRows sums the values at the given row positions (index-driven
// access, the paper's memory-latency-bound pattern).
func (c *Column) SumRows(rows []int) int64 {
	var s int64
	for _, r := range rows {
		s += c.data[r]
	}
	return s
}

// MemBytes estimates the column's memory footprint.
func (c *Column) MemBytes() int { return cap(c.data) * 8 }

// String summarizes the column for debugging.
func (c *Column) String() string {
	return fmt.Sprintf("Column{%s, rows=%d}", c.name, len(c.data))
}
