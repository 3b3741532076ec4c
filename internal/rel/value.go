// Package rel implements the relational model used throughout the peer
// data exchange library: values (constants and labeled nulls), tuples,
// facts, schemas, and instances.
//
// Instances follow the model of Fagin, Kolaitis, Miller, Popa ("Data
// exchange: semantics and query answering") as used by the peer data
// exchange paper: a finite set of facts over a relational schema whose
// values are either constants or labeled nulls. Labeled nulls stand for
// unknown values introduced by the chase to witness existential
// quantifiers.
package rel

import (
	"fmt"
	"strconv"
	"unique"
)

// Kind discriminates constants from labeled nulls.
type Kind uint8

const (
	// KindConst is an ordinary constant value.
	KindConst Kind = iota
	// KindNull is a labeled null.
	KindNull
)

// Value is either a constant (a string) or a labeled null (an integer
// label). The zero Value is the empty constant. Value is comparable and
// may be used as a map key.
//
// A Value is two machine words, so equality and map hashing cost one
// 16-byte memory hash and never hash a string. text is the constant's
// text interned with unique.Make; the zero handle stands for the empty
// constant, so the zero Value equals Const(""). null is ^label for a
// labeled null — negative for every label in the domain label >= 0 —
// and 0 for a constant. Only this file reads the fields.
type Value struct {
	text unique.Handle[string]
	null int
}

// Const returns the constant value with the given text. The text is
// interned: every Const of equal text returns the same handle, and the
// runtime drops the interned copy once no Value holds it.
func Const(s string) Value {
	if s == "" {
		return Value{}
	}
	return Value{text: unique.Make(s)}
}

// Null returns the labeled null with the given label. Labels range
// over label >= 0 (NullSource, the instance parser and the snapshot
// decoder produce no others); Null panics on a negative label.
func Null(label int) Value {
	if label < 0 {
		panic("rel: negative null label " + strconv.Itoa(label))
	}
	return Value{null: ^label}
}

// Kind reports whether v is a constant or a null.
func (v Value) Kind() Kind {
	if v.null < 0 {
		return KindNull
	}
	return KindConst
}

// IsNull reports whether v is a labeled null.
func (v Value) IsNull() bool { return v.null < 0 }

// IsConst reports whether v is a constant.
func (v Value) IsConst() bool { return v.null >= 0 }

// ConstText returns the text of a constant value. It panics if v is a
// null; callers must check IsConst first.
func (v Value) ConstText() string {
	if v.null < 0 {
		panic("rel: ConstText on labeled null")
	}
	return v.str()
}

// str returns a constant's text, "" for the zero handle.
func (v Value) str() string {
	if v.text == (unique.Handle[string]{}) {
		return ""
	}
	return v.text.Value()
}

// NullID returns the label of a null value. It panics if v is a
// constant; callers must check IsNull first.
func (v Value) NullID() int {
	if v.null >= 0 {
		panic("rel: NullID on constant")
	}
	return ^v.null
}

// String renders the value: constants as their text, nulls as _N<label>.
func (v Value) String() string {
	if v.null < 0 {
		return "_N" + strconv.Itoa(^v.null)
	}
	return v.str()
}

// Less imposes a total order on values: constants before nulls,
// constants by text, nulls by label. Used only for deterministic output;
// it never consults a handle's address, so the order does not depend on
// which constant was interned first.
func (v Value) Less(w Value) bool {
	vn, wn := v.null < 0, w.null < 0
	if vn != wn {
		return wn
	}
	if vn {
		return v.null > w.null // ^a > ^b exactly when a < b
	}
	return v.text != w.text && v.str() < w.str()
}

// NullSource hands out fresh labeled nulls. The zero value is ready to
// use; Fresh returns nulls with labels 1, 2, 3, ...
//
// A single NullSource should be shared by all chase runs that may feed
// facts into the same instance, so labels never collide.
type NullSource struct {
	next int
}

// Fresh returns a labeled null that has not been returned before by this
// source.
func (ns *NullSource) Fresh() Value {
	ns.next++
	return Null(ns.next)
}

// Seen informs the source that the given label is already in use, so
// subsequent Fresh calls avoid it.
func (ns *NullSource) Seen(id int) {
	if id > ns.next {
		ns.next = id
	}
}

// State returns the source's high-water mark: the largest label handed
// out or marked seen so far. Together with SetState it lets a cache
// freeze a chase's null-naming state and restore it later, so resumed
// runs draw exactly the labels a from-scratch run would have drawn next.
func (ns *NullSource) State() int { return ns.next }

// SetState restores a high-water mark previously obtained from State.
// Subsequent Fresh calls return labels strictly above it.
func (ns *NullSource) SetState(next int) { ns.next = next }

// SeenIn scans an instance and marks every null label occurring in it as
// used.
func (ns *NullSource) SeenIn(inst *Instance) {
	for _, f := range inst.Facts() {
		for _, v := range f.Args {
			if v.IsNull() {
				ns.Seen(v.NullID())
			}
		}
	}
}

// Tuple is an ordered list of values.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as (v1, ..., vn).
func (t Tuple) String() string {
	s := "("
	for i, v := range t {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s + ")"
}

// tupleKeyInline is how many leading values a TupleKey holds directly;
// longer tuples spill the remainder into an encoded string.
const tupleKeyInline = 4

// TupleKey is a compact comparable key identifying a tuple's exact
// value sequence, for map-based deduplication without the per-call
// allocations of a string encoding: tuples of arity ≤ 4 key with zero
// allocations. Two keys are == exactly when the tuples are equal
// value-for-value.
type TupleKey struct {
	n      int
	inline [tupleKeyInline]Value
	rest   string
}

// KeyOf returns the comparable key of the tuple.
func KeyOf(t Tuple) TupleKey {
	k := TupleKey{n: len(t)}
	for i, v := range t {
		if i == tupleKeyInline {
			k.rest = tupleKey(t[tupleKeyInline:])
			break
		}
		k.inline[i] = v
	}
	return k
}

// Fact is a tuple tagged with the relation it belongs to.
type Fact struct {
	Rel  string
	Args Tuple
}

// String renders the fact as R(v1, ..., vn).
func (f Fact) String() string {
	return fmt.Sprintf("%s%s", f.Rel, f.Args.String())
}

// FactKey is the comparable identity of a fact: its relation and the
// TupleKey of its arguments. Two keys are == exactly when the facts are
// equal value-for-value. Unlike the printed text it is injective: the
// constant "_N1" and the null _N1 print alike but key apart.
type FactKey struct {
	rel  string
	args TupleKey
}

// Key returns the comparable key of the fact; like KeyOf, it allocates
// nothing up to arity 4.
func (f Fact) Key() FactKey {
	return FactKey{rel: f.Rel, args: KeyOf(f.Args)}
}

func tupleKey(t Tuple) string {
	buf := make([]byte, 0, 16*len(t))
	for _, v := range t {
		buf = append(buf, 0)
		if v.null < 0 {
			buf = append(buf, 'n')
			buf = strconv.AppendInt(buf, int64(^v.null), 10)
		} else {
			// Length-prefixed, so a text holding the separator byte
			// cannot forge a value boundary.
			s := v.str()
			buf = append(buf, 'c')
			buf = strconv.AppendInt(buf, int64(len(s)), 10)
			buf = append(buf, ':')
			buf = append(buf, s...)
		}
	}
	return string(buf)
}
