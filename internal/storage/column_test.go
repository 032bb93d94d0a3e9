package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestColumnAppendGetSet(t *testing.T) {
	c := NewColumn("x", 4)
	if c.Len() != 0 {
		t.Fatal("new column not empty")
	}
	r0 := c.Append(10)
	r1 := c.Append(20)
	if r0 != 0 || r1 != 1 {
		t.Fatalf("rows = %d,%d, want 0,1", r0, r1)
	}
	if c.Get(0) != 10 || c.Get(1) != 20 {
		t.Fatal("Get returned wrong values")
	}
	c.Set(0, 99)
	if c.Get(0) != 99 {
		t.Fatal("Set did not stick")
	}
	if c.Name() != "x" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestColumnScanPredicates(t *testing.T) {
	c := NewColumn("v", 0)
	for i := int64(0); i < 100; i++ {
		c.Append(i)
	}
	rows := c.Scan(Between(10, 19), nil)
	if len(rows) != 10 || rows[0] != 10 || rows[9] != 19 {
		t.Fatalf("Between scan = %v", rows)
	}
	rows = c.Scan(EqualTo(42), nil)
	if len(rows) != 1 || rows[0] != 42 {
		t.Fatalf("EqualTo scan = %v", rows)
	}
	rows = c.Scan(nil, nil)
	if len(rows) != 100 {
		t.Fatalf("nil predicate matched %d rows, want 100", len(rows))
	}
	// Scan appends to the provided slice.
	prefix := []int{-1}
	rows = c.Scan(EqualTo(5), prefix)
	if len(rows) != 2 || rows[0] != -1 || rows[1] != 5 {
		t.Fatalf("Scan with prefix = %v", rows)
	}
}

func TestColumnScanAggregate(t *testing.T) {
	c := NewColumn("v", 0)
	for _, v := range []int64{5, -3, 8, 0, 12} {
		c.Append(v)
	}
	count, sum, min, max := c.ScanAggregate(nil)
	if count != 5 || sum != 22 || min != -3 || max != 12 {
		t.Fatalf("aggregate = %d,%d,%d,%d", count, sum, min, max)
	}
	count, sum, min, max = c.ScanAggregate(Between(0, 10))
	if count != 3 || sum != 13 || min != 0 || max != 8 {
		t.Fatalf("filtered aggregate = %d,%d,%d,%d", count, sum, min, max)
	}
	count, _, _, _ = c.ScanAggregate(EqualTo(999))
	if count != 0 {
		t.Fatalf("empty aggregate count = %d", count)
	}
}

func TestColumnSumRows(t *testing.T) {
	c := NewColumn("v", 0)
	for i := int64(0); i < 10; i++ {
		c.Append(i * i)
	}
	if got := c.SumRows([]int{1, 2, 3}); got != 1+4+9 {
		t.Fatalf("SumRows = %d, want 14", got)
	}
	if got := c.SumRows(nil); got != 0 {
		t.Fatalf("SumRows(nil) = %d, want 0", got)
	}
}

// Property: ScanAggregate agrees with a reference computation.
func TestColumnAggregateMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewColumn("v", 0)
		n := rng.Intn(500)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(2001) - 1000)
			c.Append(vals[i])
		}
		lo, hi := int64(-500), int64(500)
		count, sum, min, max := c.ScanAggregate(Between(lo, hi))
		rc, rs := 0, int64(0)
		rmin, rmax := int64(0), int64(0)
		first := true
		for _, v := range vals {
			if v < lo || v > hi {
				continue
			}
			rc++
			rs += v
			if first || v < rmin {
				rmin = v
			}
			if first || v > rmax {
				rmax = v
			}
			first = false
		}
		return count == rc && sum == rs && (rc == 0 || (min == rmin && max == rmax))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestColumnWindow(t *testing.T) {
	c := NewColumn("w", 64) // capacity beyond Len: clipping must hide it
	for i := int64(0); i < 10; i++ {
		c.Append(i * 3)
	}
	for _, tc := range []struct{ start, n int }{{0, 10}, {2, 5}, {9, 1}, {10, 0}, {0, 0}} {
		w := c.Window(tc.start, tc.n)
		if len(w) != tc.n || cap(w) != tc.n {
			t.Fatalf("Window(%d, %d): len %d cap %d, want both %d", tc.start, tc.n, len(w), cap(w), tc.n)
		}
		for i, v := range w {
			if v != c.Get(tc.start+i) {
				t.Fatalf("Window(%d, %d)[%d] = %d, Get = %d", tc.start, tc.n, i, v, c.Get(tc.start+i))
			}
		}
	}
	// An append through a window reallocates instead of overwriting the
	// rows that follow it.
	w := c.Window(2, 3)
	_ = append(w, -1)
	if c.Get(5) != 15 {
		t.Fatalf("append through window overwrote row 5: %d", c.Get(5))
	}
}

func TestColumnWindowOutOfRangePanics(t *testing.T) {
	c := NewColumn("w", 0)
	for i := int64(0); i < 10; i++ {
		c.Append(i)
	}
	for _, tc := range []struct{ start, n int }{{-1, 2}, {0, -1}, {0, 11}, {9, 2}, {11, 0}, {1, int(^uint(0) >> 1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Window(%d, %d) did not panic", tc.start, tc.n)
				}
			}()
			c.Window(tc.start, tc.n)
		}()
	}
}
