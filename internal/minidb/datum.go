// Package minidb is an in-memory SQL database engine with InnoDB-style
// locking. It stands in for MySQL 5.7 in the paper's evaluation: it
// executes the Fig. 6 statement subset over B-tree indexes, acquires
// record, gap, next-key, and insert-intention locks during index
// traversal, runs strict two-phase locking, and handles deadlocks with
// the detect-and-recover strategy (wait-for-graph cycle detection and
// victim abort) whose performance cost WeSEER exists to eliminate.
package minidb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/big"
	"strings"

	"weseer/internal/schema"
)

// Kind is a runtime value kind.
type Kind uint8

// Datum kinds.
const (
	KInt Kind = iota
	KReal
	KStr
)

// Datum is a concrete SQL value, possibly NULL.
type Datum struct {
	Null bool
	Kind Kind
	I    int64
	R    *big.Rat
	S    string
}

// NullDatum returns the NULL value of the given kind.
func NullDatum(k Kind) Datum { return Datum{Null: true, Kind: k} }

// I64 returns an integer datum.
func I64(v int64) Datum { return Datum{Kind: KInt, I: v} }

// Str returns a string datum.
func Str(s string) Datum { return Datum{Kind: KStr, S: s} }

// Real returns a decimal datum (r is not copied; callers treat datums as
// immutable).
func Real(r *big.Rat) Datum { return Datum{Kind: KReal, R: r} }

// RealInt returns a decimal datum with an integral value.
func RealInt(v int64) Datum { return Datum{Kind: KReal, R: big.NewRat(v, 1)} }

func (d Datum) String() string {
	if d.Null {
		return "NULL"
	}
	switch d.Kind {
	case KInt:
		return fmt.Sprintf("%d", d.I)
	case KReal:
		return d.R.RatString()
	case KStr:
		return fmt.Sprintf("'%s'", d.S)
	}
	return "<bad datum>"
}

// numeric reports whether the datum is Int or Real.
func (d Datum) numeric() bool { return d.Kind == KInt || d.Kind == KReal }

func (d Datum) rat() *big.Rat {
	if d.Kind == KInt {
		return new(big.Rat).SetInt64(d.I)
	}
	return d.R
}

// Cmp totally orders datums: NULL sorts before everything; numerics
// compare numerically across Int/Real; strings compare bytewise. Kinds
// must otherwise match (schema typing guarantees it).
func (d Datum) Cmp(o Datum) int {
	switch {
	case d.Null && o.Null:
		return 0
	case d.Null:
		return -1
	case o.Null:
		return 1
	}
	if d.numeric() && o.numeric() {
		if d.Kind == KInt && o.Kind == KInt {
			switch {
			case d.I < o.I:
				return -1
			case d.I > o.I:
				return 1
			}
			return 0
		}
		return d.rat().Cmp(o.rat())
	}
	if d.Kind == KStr && o.Kind == KStr {
		return strings.Compare(d.S, o.S)
	}
	panic(fmt.Sprintf("minidb: comparing %v with %v", d.Kind, o.Kind))
}

// Equal reports datum equality under Cmp; NULL equals only NULL.
func (d Datum) Equal(o Datum) bool { return d.Cmp(o) == 0 }

// Index entries and rows are stored as strings, so no tree entry, undo
// record or lock queue holds a pointer the collector must follow. Both are
// sequences of self-delimiting fields, one per datum: 'I' and an int64
// big-endian, 'S' or 'R' and a uvarint length and the string or the
// decimal's RatString, or a NULL: 'N' in a key, 'i', 'r' or 's' by kind in
// a row. A row field keeps its datum's kind. A key field is canonical —
// an integral decimal within int64 encodes as 'I' — so equal keys are
// equal strings, a field-wise prefix is a byte prefix, and an entry's
// tree key is its lock-table name. No key encodes to the empty string,
// which names the supremum.

// appendKeyField appends d's key field.
func appendKeyField(b []byte, d Datum) []byte {
	if d.Null {
		return append(b, 'N')
	}
	if d.Kind == KReal && d.R.IsInt() && d.R.Num().IsInt64() {
		d = I64(d.R.Num().Int64())
	}
	return appendRowField(b, d)
}

// appendRowField appends d's row field.
func appendRowField(b []byte, d Datum) []byte {
	switch {
	case d.Null:
		return append(b, "irs"[d.Kind])
	case d.Kind == KInt:
		return binary.BigEndian.AppendUint64(append(b, 'I'), uint64(d.I))
	case d.Kind == KStr:
		return append(binary.AppendUvarint(append(b, 'S'), uint64(len(d.S))), d.S...)
	}
	s := d.R.RatString()
	return append(binary.AppendUvarint(append(b, 'R'), uint64(len(s))), s...)
}

// nextField splits the first field off an encoded key or row.
func nextField(s string) (tag byte, val, rest string) {
	switch tag = s[0]; tag {
	case 'I':
		return tag, s[1:9], s[9:]
	case 'S', 'R':
		n, w := binary.Uvarint([]byte(s[1:min(len(s), 1+binary.MaxVarintLen64)]))
		return tag, s[1+w : 1+w+int(n)], s[1+w+int(n):]
	}
	return tag, "", s[1:]
}

func fieldInt(v string) int64 { return int64(binary.BigEndian.Uint64([]byte(v))) }

func fieldRat(tag byte, val string) *big.Rat {
	if tag == 'I' {
		return new(big.Rat).SetInt64(fieldInt(val))
	}
	r, _ := new(big.Rat).SetString(val)
	return r
}

// cmpKey orders encoded keys field by field as Datum.Cmp orders the
// fields' datums, a proper prefix before its extensions.
func cmpKey(a, b string) int {
	for a != "" && b != "" {
		ta, va, ra := nextField(a)
		tb, vb, rb := nextField(b)
		c := 0
		switch {
		case ta == 'N' && tb == 'N':
		case ta == 'N':
			c = -1
		case tb == 'N':
			c = 1
		case ta == 'I' && tb == 'I':
			c = cmp.Compare(fieldInt(va), fieldInt(vb))
		case ta == 'S' && tb == 'S':
			c = strings.Compare(va, vb)
		case ta == 'S' || tb == 'S':
			panic(fmt.Sprintf("minidb: comparing key fields %c and %c", ta, tb))
		default:
			c = fieldRat(ta, va).Cmp(fieldRat(tb, vb))
		}
		if c != 0 {
			return c
		}
		a, b = ra, rb
	}
	return cmp.Compare(len(a), len(b))
}

// KindOf maps a schema column type to the datum kind.
func KindOf(t schema.ColType) Kind {
	switch t {
	case schema.Int:
		return KInt
	case schema.Decimal:
		return KReal
	case schema.Varchar:
		return KStr
	}
	panic("minidb: unknown column type")
}

// Row is a stored row: values aligned with the table's column order.
type Row []Datum
