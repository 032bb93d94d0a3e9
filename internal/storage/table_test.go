package storage

import "testing"

func newPeople(t *testing.T, indexed bool) *Table {
	t.Helper()
	key := ""
	if indexed {
		key = "id"
	}
	tab, err := NewTable("people", []string{"id", "age", "score"}, key, 16)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableInsertAndLookup(t *testing.T) {
	tab := newPeople(t, true)
	row, err := tab.Insert([]int64{1, 30, 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert([]int64{2, 40, 200}); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", tab.Rows())
	}
	got, ok := tab.LookupRow(1)
	if !ok || got != row {
		t.Fatalf("LookupRow(1) = %d,%v, want %d,true", got, ok, row)
	}
	vals := tab.GetRow(got, nil)
	if len(vals) != 3 || vals[0] != 1 || vals[1] != 30 || vals[2] != 100 {
		t.Fatalf("GetRow = %v", vals)
	}
}

func TestTableDuplicateKeyRejected(t *testing.T) {
	tab := newPeople(t, true)
	if _, err := tab.Insert([]int64{1, 30, 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert([]int64{1, 31, 101}); err == nil {
		t.Fatal("duplicate key insert should fail")
	}
}

func TestTableNonIndexedLookupFails(t *testing.T) {
	tab := newPeople(t, false)
	if tab.Indexed() {
		t.Fatal("table should not be indexed")
	}
	if _, ok := tab.LookupRow(1); ok {
		t.Fatal("LookupRow on non-indexed table should fail")
	}
}

func TestTableUpdate(t *testing.T) {
	tab := newPeople(t, true)
	row, _ := tab.Insert([]int64{1, 30, 100})
	if err := tab.Update(row, "age", 31); err != nil {
		t.Fatal(err)
	}
	if got := tab.Column("age").Get(row); got != 31 {
		t.Fatalf("age = %d, want 31", got)
	}
	if err := tab.Update(row, "nope", 1); err == nil {
		t.Fatal("update of unknown column should fail")
	}
	if err := tab.Update(row, "id", 9); err == nil {
		t.Fatal("key column update should fail")
	}
}

func TestTableScanRows(t *testing.T) {
	tab := newPeople(t, false)
	for i := int64(0); i < 50; i++ {
		if _, err := tab.Insert([]int64{i, i % 10, i * 2}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := tab.ScanRows("age", EqualTo(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("matched %d rows, want 5", len(rows))
	}
	if _, err := tab.ScanRows("nope", nil); err == nil {
		t.Fatal("scan of unknown column should fail")
	}
}

func TestTableConstructionErrors(t *testing.T) {
	if _, err := NewTable("t", nil, "", 0); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := NewTable("t", []string{"a", "a"}, "", 0); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewTable("t", []string{"a"}, "b", 0); err == nil {
		t.Error("missing key column should fail")
	}
}

func TestTableInsertArityChecked(t *testing.T) {
	tab := newPeople(t, false)
	if _, err := tab.Insert([]int64{1, 2}); err == nil {
		t.Fatal("short row insert should fail")
	}
}

func TestTableMemBytes(t *testing.T) {
	tab := newPeople(t, true)
	for i := int64(0); i < 100; i++ {
		if _, err := tab.Insert([]int64{i, i, i}); err != nil {
			t.Fatal(err)
		}
	}
	if tab.MemBytes() <= 0 {
		t.Error("MemBytes should be positive")
	}
}

func TestTableLookupRowsMatchesLookupRow(t *testing.T) {
	tab := newPeople(t, true)
	for i := int64(0); i < 100; i++ {
		// Sparse keys, so half the probes below miss.
		if _, err := tab.Insert([]int64{2 * i, i, -i}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 200} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64((i*37 + n) % 200)
		}
		rows := make([]uint64, n)
		found := make([]bool, n)
		tab.LookupRows(keys, rows, found)
		for i, k := range keys {
			wantRow, wantOK := tab.LookupRow(int64(k))
			if found[i] != wantOK || (wantOK && int(rows[i]) != wantRow) {
				t.Fatalf("n=%d: LookupRows[%d] key %d = (%d,%v), LookupRow = (%d,%v)", n, i, k, rows[i], found[i], wantRow, wantOK)
			}
		}
	}
}

func TestTableLookupRowsUnindexed(t *testing.T) {
	tab := newPeople(t, false)
	if _, err := tab.Insert([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	rows := []uint64{9, 9}
	found := []bool{true, true}
	tab.LookupRows([]uint64{1, 2}, rows, found)
	if found[0] || found[1] || rows[0] != 0 || rows[1] != 0 {
		t.Fatalf("unindexed LookupRows = %v %v, want all missing", rows, found)
	}
}

func TestTableLookupRowsLengthMismatchPanics(t *testing.T) {
	tab := newPeople(t, true)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched LookupRows did not panic")
		}
	}()
	tab.LookupRows([]uint64{1, 2}, make([]uint64, 1), make([]bool, 2))
}
