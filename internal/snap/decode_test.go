package snap_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/snap"
	"repro/internal/workload"
	"repro/pde"
)

// lavEntry chases LAV(n) and returns the trace with its snapshot bytes.
func lavEntry(t testing.TB, n int) (*core.TractableTrace, []byte) {
	t.Helper()
	i, j := workload.LAVInstance(n, true, rand.New(rand.NewSource(int64(n))))
	trace, err := core.ChaseCanonicalTractable(workload.LAVSetting(), i, j, core.TractableOptions{})
	if err != nil {
		t.Fatalf("lav trace: %v", err)
	}
	data, err := snap.Encode(&snap.Entry{
		SettingID: fakeID("a", n), SourceID: fakeID("b", n), TargetID: fakeID("c", n),
		Kind:       snap.KindTractable,
		SourceText: pde.FormatInstance(i), TargetText: pde.FormatInstance(j),
		Tractable: trace,
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return trace, data
}

// keyedEntry chases the keyed LAV(n) pair, whose Σt merges retain
// union-find state, and returns the canonical target with its bytes.
func keyedEntry(t testing.TB, n int) (*core.CanonicalTarget, []byte) {
	t.Helper()
	i, j := workload.KeyedLAVInstance(n)
	ct, err := core.ChaseCanonicalTarget(workload.KeyedLAVSetting(), i, j, core.SolveOptions{})
	if err != nil {
		t.Fatalf("keyed canonical target: %v", err)
	}
	if ct.TResult == nil || ct.TResult.UnionFind == nil || ct.TResult.Merges == 0 {
		t.Fatal("keyed chase retained no merges")
	}
	data, err := snap.Encode(&snap.Entry{
		SettingID: fakeID("d", n), SourceID: fakeID("e", n), TargetID: fakeID("f", n),
		Kind:       snap.KindGeneric,
		SourceText: pde.FormatInstance(i), TargetText: pde.FormatInstance(j),
		Generic: ct,
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return ct, data
}

func decode(t testing.TB, data []byte) *snap.Entry {
	t.Helper()
	e, err := snap.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return e
}

// reencodes asserts that e still encodes to exactly data.
func reencodes(t *testing.T, e *snap.Entry, data []byte) {
	t.Helper()
	again, err := snap.Encode(e)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("decoded entry no longer re-encodes to its input: %d vs %d bytes", len(again), len(data))
	}
}

// TestDecodeSharesRelationsCopyOnWrite: a stored relation decodes once
// and every later copy of it shares the built one, as the instances of
// a freshly chased trace share it. Resumes write through clones, so
// they copy a shared relation before writing it and leave the decoded
// entry exactly as stored, also when two of them run at once.
func TestDecodeSharesRelationsCopyOnWrite(t *testing.T) {
	lav := workload.LAVSetting()
	_, data := lavEntry(t, 40)
	e := decode(t, data)
	tr := e.Tractable
	if tr.STResult.Start.Relation("Person") != tr.STResult.Instance.Relation("Person") {
		t.Error("Σst start and fixpoint hold separate Person relations")
	}
	if tr.JCan.Relation("Rec") != tr.TSResult.Start.Relation("Rec") {
		t.Error("J_can and the Σts start hold separate Rec relations")
	}
	persons := tr.STResult.Instance.Relation("Person").LiveLen()
	next, resumed, _, err := core.ResumeCanonicalTractable(lav, tr, workload.LAVAppend(5), core.TractableOptions{})
	if err != nil || !resumed {
		t.Fatalf("resume decoded trace: resumed %v, %v", resumed, err)
	}
	if got := next.STResult.Instance.Relation("Person").LiveLen(); got != persons+5 {
		t.Fatalf("resumed Σst fixpoint holds %d persons, want %d", got, persons+5)
	}
	reencodes(t, e, data)

	// A draft note for p0 makes the resumed Σt chase merge again.
	keyed := workload.KeyedLAVSetting()
	_, gdata := keyedEntry(t, 20)
	g := decode(t, gdata)
	delta := workload.KeyedLAVAppend(20, 3)
	delta.Add("Rec", rel.Const("p0"), rel.Const("g0"), rel.Const("late-note"))
	gnext, _, _, err := core.ResumeCanonicalTarget(keyed, g.Generic, delta, core.SolveOptions{})
	if err != nil {
		t.Fatalf("resume decoded canonical target: %v", err)
	}
	if gnext.TResult.Merges == 0 {
		t.Fatal("the resumed Σt chase merged nothing")
	}
	reencodes(t, g, gdata)

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, _, _, err := core.ResumeCanonicalTractable(lav, tr, workload.LAVAppend(5), core.TractableOptions{}); err != nil {
				t.Errorf("concurrent tractable resume: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, _, _, err := core.ResumeCanonicalTarget(keyed, g.Generic, delta, core.SolveOptions{}); err != nil {
				t.Errorf("concurrent generic resume: %v", err)
			}
		}()
	}
	wg.Wait()
	reencodes(t, e, data)
	reencodes(t, g, gdata)
}

// artifactOffset returns the offset of the artifact in a snapshot: past
// the magic, the format version, the three ids, the kind byte and the
// two instance texts.
func artifactOffset(data []byte) int {
	off := 8
	_, n := binary.Uvarint(data[off:])
	off += n
	for k := 0; k < 6; k++ {
		if k == 3 {
			off++ // kind byte
			continue
		}
		l, n := binary.Uvarint(data[off:])
		off += n + int(l)
	}
	return off
}

// relHeader is the encoding of a relation header: name, arity, count.
func relHeader(name string, arity, n int) []byte {
	b := binary.AppendUvarint(nil, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, uint64(arity))
	return binary.AppendUvarint(b, uint64(n))
}

// TestDecodeErrorsNameTheirField: a value truncated or corrupted inside
// a section yields an error that wraps the right sentinel and names the
// section and the field where decoding stopped.
func TestDecodeErrorsNameTheirField(t *testing.T) {
	trace, data := lavEntry(t, 12)
	body := data[:len(data)-32]

	// The Σst fixpoint is the artifact's first instance; its first
	// relation's first value follows the relation count and header.
	fix := trace.STResult.Instance
	first := fix.RelationNames()[0]
	hdr := binary.AppendUvarint(nil, uint64(len(fix.RelationNames())))
	hdr = append(hdr, relHeader(first, fix.Relation(first).Arity(), fix.Relation(first).LiveLen())...)
	off := artifactOffset(data)
	if !bytes.HasPrefix(body[off:], hdr) {
		t.Fatalf("Σst fixpoint header not found at offset %d", off)
	}
	stTag := off + len(hdr)

	// The Σts start holds only Rec, so its bytes open like J_can's,
	// which comes later; no other instance holds Rec alone.
	rec := trace.TSResult.Start.Relation("Rec")
	hdr = append([]byte{1}, relHeader("Rec", 3, rec.LiveLen())...)
	if got := bytes.Count(body, hdr); got != 2 {
		t.Fatalf("a lone Rec relation opens %d instances, want 2 (Σts start and J_can)", got)
	}
	tsTag := bytes.Index(body, hdr) + len(hdr)

	// The canonical source ends the body; its last value is a constant.
	member := trace.ICan.Relation("Member")
	last := member.TupleAt(member.Len() - 1)
	text := last[len(last)-1].ConstText()
	srcTag := len(body) - len(text) - 2

	corrupt := func(off int, b byte) []byte {
		mut := append([]byte(nil), body...)
		mut[off] = b
		return snap.AppendChecksum(mut)
	}
	truncate := func(n int) []byte {
		return snap.AppendChecksum(append([]byte(nil), body[:n]...))
	}
	for _, c := range []struct {
		name     string
		data     []byte
		sentinel error
		want     string
	}{
		{"Σst fixpoint tag corrupted", corrupt(stTag, 9), snap.ErrCorrupt, "unknown Σst fixpoint tag 9"},
		{"Σts start tag corrupted", corrupt(tsTag, 9), snap.ErrCorrupt, "unknown Σts start tag 9"},
		// A continuation bit on the constant's one-byte length makes it
		// span the first text byte too, far past the end of the input.
		{"Σts start constant length corrupted", corrupt(tsTag+1, body[tsTag+1]|0x80), snap.ErrTruncated, "Σts start constant of "},
		{"Σts start truncated after its header", truncate(tsTag), snap.ErrTruncated, "Σts start relation \"Rec\" claims"},
		{"canonical source truncated at a tag", truncate(srcTag), snap.ErrTruncated, "reading canonical source tag"},
		{"canonical source truncated in a constant", truncate(len(body) - 1), snap.ErrTruncated, "canonical source constant of "},
	} {
		_, err := snap.Decode(c.data)
		if !errors.Is(err, c.sentinel) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %v naming %q", c.name, err, c.sentinel, c.want)
		}
	}
}

// TestDecodeAllocs gates the decoder's allocations on a LAV(400) trace:
// error text is built only when a read fails, and each distinct stored
// relation is built once, so a decode allocates about a thousand
// objects. Building labels per value and every stored copy anew took
// about 29,000.
func TestDecodeAllocs(t *testing.T) {
	_, data := lavEntry(t, 400)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := snap.Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Fatalf("decoding a LAV(400) trace allocates %.0f objects, want at most 2000", allocs)
	}
}
