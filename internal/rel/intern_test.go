package rel

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

// TestValueLayout pins Value at two machine words. A 24-byte
// {kind, label, handle} layout was measured to grow TupleKey to 120
// bytes, which the Go map stores inline in 128-byte slots: cold-inline
// allocated 7.8% more bytes per request (4,778 → 5,153 KiB/op). The
// TupleKey bound keeps the key inside one 128-byte slot. FactKey (a
// relation name beside a TupleKey, 104 bytes) keys the generic image
// search's per-fact responsibilities and the core's block membership,
// so it is held to the same slot: past 128 bytes the map stores keys
// out of line and every insert allocates.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(TupleKey{}); got > 128 {
		t.Errorf("unsafe.Sizeof(TupleKey{}) = %d, want <= 128", got)
	}
	if got := unsafe.Sizeof(FactKey{}); got > 128 {
		t.Errorf("unsafe.Sizeof(FactKey{}) = %d, want <= 128", got)
	}
}

// modelValue is the plain reference model of a Value: a kind, a text
// for constants and a label for nulls.
type modelValue struct {
	null  bool
	text  string
	label int
}

func (m modelValue) value() Value {
	if m.null {
		return Null(m.label)
	}
	return Const(m.text)
}

func (m modelValue) less(o modelValue) bool {
	if m.null != o.null {
		return o.null
	}
	if m.null {
		return m.label < o.label
	}
	return m.text < o.text
}

func (m modelValue) String() string {
	if m.null {
		return "_N" + strconv.Itoa(m.label)
	}
	return m.text
}

// modelTexts covers the empty constant, shared prefixes, non-ASCII
// text, the tupleKey separator byte and a text that reads as a null.
var modelTexts = []string{
	"", "a", "ab", "abc", "abd", "b", "ä", "äb", "日本", "日本語",
	"a\x00", "a\x00cb", "\x00n1", "_N1", "1", "p12", "p1", "p120",
}

var modelLabels = []int{0, 1, 2, 9, 10, 1 << 20, 1<<31 - 1, 1 << 40, math.MaxInt - 1, math.MaxInt}

func randomModel(rng *rand.Rand) modelValue {
	switch rng.Intn(4) {
	case 0:
		return modelValue{null: true, label: modelLabels[rng.Intn(len(modelLabels))]}
	case 1:
		return modelValue{null: true, label: rng.Intn(50)}
	case 2:
		// A freshly built text, so interning sees a string that shares no
		// backing array with an earlier one.
		b := []byte(modelTexts[rng.Intn(len(modelTexts))])
		return modelValue{text: string(append(b, modelTexts[rng.Intn(len(modelTexts))]...))}
	default:
		return modelValue{text: modelTexts[rng.Intn(len(modelTexts))]}
	}
}

// TestValueMatchesModel checks Value's operations against the plain
// (kind, text, label) model on random pairs of values.
func TestValueMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 0; n < 5000; n++ {
		a, b := randomModel(rng), randomModel(rng)
		va, vb := a.value(), b.value()
		if got, want := va == vb, a == b; got != want {
			t.Fatalf("%q == %q is %v, model says %v", a, b, got, want)
		}
		if got, want := va.Less(vb), a.less(b); got != want {
			t.Fatalf("%q < %q is %v, model says %v", a, b, got, want)
		}
		if got := va.String(); got != a.String() {
			t.Fatalf("String = %q, model %q", got, a.String())
		}
		if va.IsNull() != a.null || va.IsConst() == a.null || (va.Kind() == KindNull) != a.null {
			t.Fatalf("%q: IsNull=%v IsConst=%v Kind=%v, model null=%v", a, va.IsNull(), va.IsConst(), va.Kind(), a.null)
		}
		if a.null {
			if got := Null(va.NullID()); got != va || va.NullID() != a.label {
				t.Fatalf("NullID round trip of %d gave %d", a.label, va.NullID())
			}
		} else if got := Const(va.ConstText()); got != va || va.ConstText() != a.text {
			t.Fatalf("ConstText round trip of %q gave %q", a.text, va.ConstText())
		}
	}
	if Const("") != (Value{}) || (Value{}).ConstText() != "" || !(Value{}).IsConst() {
		t.Error("the zero Value must be the empty constant")
	}
}

// TestTupleKeysMatchModel checks KeyOf and tupleKey against model tuple
// equality, with arities on both sides of the inline width.
func TestTupleKeysMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tuple := func(n int) ([]modelValue, Tuple) {
		ms := make([]modelValue, n)
		vs := make(Tuple, n)
		for i := range ms {
			// A narrow draw so equal tuples occur often.
			if rng.Intn(3) == 0 {
				ms[i] = modelValue{null: true, label: rng.Intn(3)}
			} else {
				ms[i] = modelValue{text: modelTexts[rng.Intn(4)]}
			}
			vs[i] = ms[i].value()
		}
		return ms, vs
	}
	equal := 0
	for n := 0; n < 20000; n++ {
		arity := 1 + rng.Intn(8)
		ma, ta := tuple(arity)
		mb, tb := tuple(arity)
		same := true
		for i := range ma {
			same = same && ma[i] == mb[i]
		}
		if same {
			equal++
		}
		if got := KeyOf(ta) == KeyOf(tb); got != same {
			t.Fatalf("KeyOf(%v) == KeyOf(%v) is %v, model says %v", ta, tb, got, same)
		}
		if got := tupleKey(ta) == tupleKey(tb); got != same {
			t.Fatalf("tupleKey(%v) == tupleKey(%v) is %v, model says %v", ta, tb, got, same)
		}
	}
	if equal == 0 {
		t.Fatal("no equal pair drawn; the check is vacuous")
	}
	// A constant holding the separator byte must not forge a boundary.
	forged := Tuple{Const("a"), Const("b"), Const("c"), Const("d"), Const("x\x00cy"), Const("z")}
	split := Tuple{Const("a"), Const("b"), Const("c"), Const("d"), Const("x"), Const("y\x00cz")}
	if KeyOf(forged) == KeyOf(split) {
		t.Error("distinct tuples with separator bytes share a key")
	}
}

// TestNullLabelDomain: null labels range over label >= 0; Null panics
// on every label outside it.
func TestNullLabelDomain(t *testing.T) {
	for _, label := range []int{0, 1, math.MaxInt} {
		if got := Null(label).NullID(); got != label {
			t.Errorf("Null(%d).NullID() = %d", label, got)
		}
	}
	for _, label := range []int{-1, -2, math.MinInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Null(%d) did not panic", label)
				}
			}()
			Null(label)
		}()
	}
}

// TestConstConcurrentAndAcrossGC: interning is safe for concurrent use,
// and an interned constant held across a collection still equals a
// fresh Const of its text. Run under -race.
func TestConstConcurrentAndAcrossGC(t *testing.T) {
	texts := make([]string, 1000)
	for i := range texts {
		texts[i] = "intern-" + strconv.Itoa(i)
	}
	const workers = 8
	got := make([][]Value, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vs := make([]Value, len(texts))
			for i := range texts {
				// Each worker walks the texts from its own offset, so
				// first interning races across workers.
				k := (i + w*len(texts)/workers) % len(texts)
				vs[k] = Const(string([]byte(texts[k])))
			}
			got[w] = vs
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range texts {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d interned %q apart from worker 0", w, texts[i])
			}
		}
	}
	held := got[0]
	runtime.GC()
	runtime.GC()
	for i, v := range held {
		if v != Const(texts[i]) || v.ConstText() != texts[i] {
			t.Fatalf("constant %q held across GC no longer equals a fresh Const", texts[i])
		}
	}
}
