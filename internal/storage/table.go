package storage

import "fmt"

// Table is a collection of equally long columns, optionally indexed on one
// key column. One Table instance holds one partition's share of a logical
// relation; the DBMS layer routes operations to the owning partition.
type Table struct {
	name    string
	columns []*Column
	byName  map[string]int
	// index maps key values of the key column to row positions; nil for
	// non-indexed tables (which are accessed by full scans instead —
	// the paper's "non-indexed" benchmark variants).
	index  *HashIndex
	keyCol int
	rows   int
}

// NewTable creates a table with the given column names. If keyColumn is
// non-empty, an index on that column is maintained.
func NewTable(name string, columnNames []string, keyColumn string, capacity int) (*Table, error) {
	if len(columnNames) == 0 {
		return nil, fmt.Errorf("storage: table %s needs at least one column", name)
	}
	t := &Table{name: name, byName: make(map[string]int, len(columnNames)), keyCol: -1}
	for i, cn := range columnNames {
		if _, dup := t.byName[cn]; dup {
			return nil, fmt.Errorf("storage: table %s: duplicate column %s", name, cn)
		}
		t.byName[cn] = i
		t.columns = append(t.columns, NewColumn(cn, capacity))
	}
	if keyColumn != "" {
		idx, ok := t.byName[keyColumn]
		if !ok {
			return nil, fmt.Errorf("storage: table %s: key column %s not defined", name, keyColumn)
		}
		t.keyCol = idx
		t.index = NewHashIndex(capacity)
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Indexed reports whether the table maintains a key index.
func (t *Table) Indexed() bool { return t.index != nil }

// Column returns a column by name, or nil.
func (t *Table) Column(name string) *Column {
	i, ok := t.byName[name]
	if !ok {
		return nil
	}
	return t.columns[i]
}

// Columns returns all columns in definition order.
func (t *Table) Columns() []*Column { return t.columns }

// Insert appends a row (one value per column, in definition order) and
// returns its row position. For indexed tables the key column value must
// be unique.
func (t *Table) Insert(values []int64) (int, error) {
	if len(values) != len(t.columns) {
		return 0, fmt.Errorf("storage: table %s: %d values for %d columns", t.name, len(values), len(t.columns))
	}
	if t.index != nil {
		if _, exists := t.index.Get(uint64(values[t.keyCol])); exists {
			return 0, fmt.Errorf("storage: table %s: duplicate key %d", t.name, values[t.keyCol])
		}
	}
	row := 0
	for i, c := range t.columns {
		row = c.Append(values[i])
	}
	if t.index != nil {
		t.index.Put(uint64(values[t.keyCol]), uint64(row))
	}
	t.rows++
	return row, nil
}

// LookupRow finds a row position by key using the index.
func (t *Table) LookupRow(key int64) (int, bool) {
	if t.index == nil {
		return 0, false
	}
	row, ok := t.index.Get(uint64(key))
	return int(row), ok
}

// LookupRows finds the row positions of a batch of keys, filling rows[i]
// and found[i] exactly as LookupRow(int64(keys[i])) would. The probes go
// through the index's grouped MultiGet, so their cache misses overlap.
// On a table without an index every key is reported missing. All three
// slices must have the same length.
func (t *Table) LookupRows(keys, rows []uint64, found []bool) {
	if len(rows) != len(keys) || len(found) != len(keys) {
		panic(fmt.Sprintf("storage: table %s: LookupRows with %d keys, %d rows, %d found", t.name, len(keys), len(rows), len(found)))
	}
	if t.index == nil {
		clear(rows)
		clear(found)
		return
	}
	t.index.MultiGet(keys, rows, found)
}

// GetRow materializes the row at a position.
func (t *Table) GetRow(row int, out []int64) []int64 {
	for _, c := range t.columns {
		out = append(out, c.Get(row))
	}
	return out
}

// Update overwrites one column of one row.
func (t *Table) Update(row int, column string, v int64) error {
	i, ok := t.byName[column]
	if !ok {
		return fmt.Errorf("storage: table %s: no column %s", t.name, column)
	}
	if i == t.keyCol && t.index != nil {
		return fmt.Errorf("storage: table %s: key column updates unsupported", t.name)
	}
	t.columns[i].Set(row, v)
	return nil
}

// ScanRows returns row positions matching a predicate on one column.
func (t *Table) ScanRows(column string, p Predicate) ([]int, error) {
	c := t.Column(column)
	if c == nil {
		return nil, fmt.Errorf("storage: table %s: no column %s", t.name, column)
	}
	return c.Scan(p, nil), nil
}

// MemBytes estimates the table's memory footprint.
func (t *Table) MemBytes() int {
	total := 0
	for _, c := range t.columns {
		total += c.MemBytes()
	}
	if t.index != nil {
		total += t.index.MemBytes()
	}
	return total
}
