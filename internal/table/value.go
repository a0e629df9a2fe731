package table

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Value is a dynamically typed cell value. It is a tagged union rather
// than an interface so rows can be compared and copied without heap
// traffic on the hot operator paths.
type Value struct {
	Kind  Kind
	int64 int64
	f64   float64
	str   string
}

// Int constructs an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, int64: v} }

// Float constructs a float value.
func Float(v float64) Value { return Value{Kind: KindFloat, f64: v} }

// Str constructs a string value.
func Str(v string) Value { return Value{Kind: KindString, str: v} }

// Bool constructs a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Kind: KindBool, int64: i}
}

// Null constructs the SQL NULL value. NULL is a value kind, not a
// column kind: it exists so bound statement parameters can carry "no
// value" through the wire protocol and the binder, but no column stores
// it (NewSchema rejects it) and comparisons against it error.
func Null() Value { return Value{Kind: KindNull} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// FromAny converts a Go value into a Value: all int/uint widths,
// float32/64, string, []byte, bool, nil (NULL), time.Time (as a DATE:
// days since the Unix epoch, matching KindInt's date convention), and
// Value itself. It is the single conversion used by every
// parameter-binding surface (public API, network client, database/sql
// driver), so the accepted types are the same everywhere.
func FromAny(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null(), nil
	case Value:
		return x, nil
	case time.Time:
		// Floor division so pre-1970 instants land on the right day.
		secs := x.Unix()
		days := secs / 86400
		if secs%86400 < 0 {
			days--
		}
		return Int(days), nil
	case int:
		return Int(int64(x)), nil
	case int8:
		return Int(int64(x)), nil
	case int16:
		return Int(int64(x)), nil
	case int32:
		return Int(int64(x)), nil
	case int64:
		return Int(x), nil
	case uint:
		if uint64(x) > 1<<63-1 {
			return Value{}, fmt.Errorf("table: uint argument %d overflows int64", x)
		}
		return Int(int64(x)), nil
	case uint8:
		return Int(int64(x)), nil
	case uint16:
		return Int(int64(x)), nil
	case uint32:
		return Int(int64(x)), nil
	case uint64:
		if x > 1<<63-1 {
			return Value{}, fmt.Errorf("table: uint64 argument %d overflows int64", x)
		}
		return Int(int64(x)), nil
	case float32:
		return Float(float64(x)), nil
	case float64:
		return Float(x), nil
	case string:
		return Str(x), nil
	case []byte:
		return Str(string(x)), nil
	case bool:
		return Bool(x), nil
	}
	return Value{}, fmt.Errorf("table: cannot bind argument of type %T", v)
}

// AsInt returns the integer payload (valid for KindInt and KindBool).
func (v Value) AsInt() int64 { return v.int64 }

// AsFloat returns the float payload, converting integers.
func (v Value) AsFloat() float64 {
	if v.Kind == KindFloat {
		return v.f64
	}
	return float64(v.int64)
}

// AsString returns the string payload.
func (v Value) AsString() string { return v.str }

// AsBool returns the boolean payload.
func (v Value) AsBool() bool { return v.int64 != 0 }

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// Compare orders two values. Numeric kinds compare numerically against
// each other; otherwise kinds must match. It returns -1, 0, or +1.
func Compare(a, b Value) (int, error) {
	if a.IsNumeric() && b.IsNumeric() {
		if a.Kind == KindInt && b.Kind == KindInt {
			return cmpOrdered(a.int64, b.int64), nil
		}
		return cmpOrdered(a.AsFloat(), b.AsFloat()), nil
	}
	if a.Kind != b.Kind {
		return 0, fmt.Errorf("table: cannot compare %s with %s", a.Kind, b.Kind)
	}
	switch a.Kind {
	case KindString:
		return cmpOrdered(a.str, b.str), nil
	case KindBool:
		return cmpOrdered(a.int64, b.int64), nil
	}
	return 0, fmt.Errorf("table: cannot compare %s values", a.Kind)
}

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// String renders the value as a SQL literal.
func (v Value) String() string {
	var buf [24]byte
	return string(v.AppendLiteral(buf[:0]))
}

// AppendLiteral appends String's rendering of the value to dst, for
// loops that render one value per row into a reused buffer.
func (v Value) AppendLiteral(dst []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(dst, v.int64, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f64, 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(dst, v.str)
	case KindBool:
		if v.int64 != 0 {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	case KindNull:
		return append(dst, "NULL"...)
	}
	return append(dst, '?')
}

// Equal reports deep equality of two values (numeric cross-kind equality
// included, matching Compare).
func (v Value) Equal(o Value) bool {
	c, err := Compare(v, o)
	return err == nil && c == 0
}

// Clone returns a self-contained copy of the value: string payloads are
// copied out of whatever buffer they alias. Rows decoded into scratch
// (Schema.DecodeRecordInto, Flat.Scan, exec.ForEachRow) alias the reused
// block buffer for speed; any value retained past the current row must
// be detached with Clone.
func (v Value) Clone() Value {
	v.str = strings.Clone(v.str)
	return v
}

// Row is one tuple of values, ordered per its schema.
type Row []Value

// Clone returns a self-contained copy of the row (see Value.Clone: the
// copy is detached from any scratch buffer the source row aliases).
func (r Row) Clone() Row {
	cp := make(Row, len(r))
	for i, v := range r {
		cp[i] = v.Clone()
	}
	return cp
}

// String renders the row as a parenthesized tuple.
func (r Row) String() string {
	s := "("
	for i, v := range r {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s + ")"
}
