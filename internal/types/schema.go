package types

import (
	"fmt"
	"strings"
)

// ColumnType describes a column's SQL type plus SDB security metadata.
type ColumnType struct {
	Kind Kind
	// Scale is the number of decimal digits for KindDecimal (scaled-int
	// representation); zero otherwise.
	Scale int
	// Sensitive marks columns the DO encrypts before upload. Only numeric
	// kinds (INT, DECIMAL, DATE) may be sensitive; this matches SDB, whose
	// operators are arithmetic over Z_n.
	Sensitive bool
}

func (ct ColumnType) String() string {
	s := ct.Kind.String()
	if ct.Kind == KindDecimal {
		s = fmt.Sprintf("DECIMAL(%d)", ct.Scale)
	}
	if ct.Sensitive {
		s += " SENSITIVE"
	}
	return s
}

// Column is a named, typed column.
type Column struct {
	Name string
	Type ColumnType
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema, validating that sensitive columns are numeric
// and names are unique (case-insensitive).
func NewSchema(cols []Column) (Schema, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		lower := strings.ToLower(c.Name)
		if seen[lower] {
			return Schema{}, fmt.Errorf("types: duplicate column %q", c.Name)
		}
		seen[lower] = true
		if c.Type.Sensitive && !c.Type.Kind.Numeric() {
			return Schema{}, fmt.Errorf("types: column %q: only numeric columns can be SENSITIVE, got %s", c.Name, c.Type.Kind)
		}
	}
	return Schema{Columns: cols}, nil
}

// Find returns the index of the named column (case-insensitive), or -1.
func (s Schema) Find(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.Columns) }

// Row is one tuple of values, parallel to a schema's columns.
type Row []Value
