// Package rdbms implements the relational storage substrate of the
// personalized knowledge base — the role MySQL plays in the paper. It is a
// small in-memory relational engine with typed columns, a SQL subset
// (CREATE TABLE, INSERT, SELECT with WHERE/ORDER BY/LIMIT and aggregates,
// UPDATE, DELETE), hash indexes, and CSV import/export for the knowledge
// base's format conversions.
package rdbms

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Type is a column type.
type Type int

// Column types.
const (
	typeInt Type = iota + 1
	typeFloat
	TypeText
	typeBool
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case typeInt:
		return "INT"
	case typeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case typeBool:
		return "BOOL"
	default:
		return "UNKNOWN"
	}
}

// parseType parses a SQL type name (case-insensitive, with common aliases).
func parseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT":
		return typeInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL":
		return typeFloat, nil
	case "TEXT", "VARCHAR", "STRING", "CHAR":
		return TypeText, nil
	case "BOOL", "BOOLEAN":
		return typeBool, nil
	default:
		return 0, fmt.Errorf("rdbms: unknown type %q", s)
	}
}

// Value is a typed cell value. A Value with Null true carries no payload.
type Value struct {
	Type  Type
	Null  bool
	Int   int64
	Float float64
	Text  string
	Bool  bool
}

// Convenience constructors.
func intV(v int64) Value     { return Value{Type: typeInt, Int: v} }
func floatV(v float64) Value { return Value{Type: typeFloat, Float: v} }
func TextV(v string) Value   { return Value{Type: TypeText, Text: v} }
func boolV(v bool) Value     { return Value{Type: typeBool, Bool: v} }
func nullV(t Type) Value     { return Value{Type: t, Null: true} }

// String renders the value for display and CSV export.
func (v Value) String() string {
	if v.Null {
		return ""
	}
	switch v.Type {
	case typeInt:
		return strconv.FormatInt(v.Int, 10)
	case typeFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case typeBool:
		return strconv.FormatBool(v.Bool)
	default:
		return v.Text
	}
}

// AsFloat converts numeric values to float64 for aggregation.
func (v Value) AsFloat() (float64, error) {
	if v.Null {
		return 0, errors.New("rdbms: NULL is not numeric")
	}
	switch v.Type {
	case typeInt:
		return float64(v.Int), nil
	case typeFloat:
		return v.Float, nil
	default:
		return 0, fmt.Errorf("rdbms: %s is not numeric", v.Type)
	}
}

// compareValues orders two values of compatible types: -1, 0, +1. NULLs sort
// before everything and equal each other.
func compareValues(a, b Value) (int, error) {
	if a.Null && b.Null {
		return 0, nil
	}
	if a.Null {
		return -1, nil
	}
	if b.Null {
		return 1, nil
	}
	// Numeric cross-type comparison.
	if (a.Type == typeInt || a.Type == typeFloat) && (b.Type == typeInt || b.Type == typeFloat) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.Type != b.Type {
		return 0, fmt.Errorf("rdbms: cannot compare %s with %s", a.Type, b.Type)
	}
	switch a.Type {
	case TypeText:
		return strings.Compare(a.Text, b.Text), nil
	case typeBool:
		switch {
		case a.Bool == b.Bool:
			return 0, nil
		case !a.Bool:
			return -1, nil
		default:
			return 1, nil
		}
	default:
		return 0, fmt.Errorf("rdbms: cannot compare %s", a.Type)
	}
}

// coerce converts a raw string into a value of the target type, used by CSV
// import and literal binding. Empty strings become NULL.
func coerce(raw string, t Type) (Value, error) {
	if raw == "" {
		return nullV(t), nil
	}
	switch t {
	case typeInt:
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("rdbms: %q is not an INT: %w", raw, err)
		}
		return intV(n), nil
	case typeFloat:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return Value{}, fmt.Errorf("rdbms: %q is not a FLOAT: %w", raw, err)
		}
		return floatV(f), nil
	case typeBool:
		b, err := strconv.ParseBool(strings.ToLower(raw))
		if err != nil {
			return Value{}, fmt.Errorf("rdbms: %q is not a BOOL: %w", raw, err)
		}
		return boolV(b), nil
	default:
		return TextV(raw), nil
	}
}
