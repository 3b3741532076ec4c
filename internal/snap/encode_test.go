package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/rel"
	"repro/internal/workload"
	"repro/pde"
)

// referenceEncode is Encode as it was before the writer memoized the
// relations it had written: every use of a relation is encoded from
// its tuples, through a counting pass into one exact allocation. The
// encoders must agree with it byte for byte.
func referenceEncode(e *Entry) ([]byte, error) {
	if e.Kind != KindTractable && e.Kind != KindGeneric {
		return nil, fmt.Errorf("snap: encode: unknown artifact kind %q", e.Kind)
	}
	sizer := &refWriter{counting: true}
	sizer.entry(e)
	if sizer.err != nil {
		return nil, sizer.err
	}
	w := &refWriter{buf: make([]byte, 0, sizer.n+sha256.Size)}
	w.entry(e)
	sum := sha256.Sum256(w.buf)
	return append(w.buf, sum[:]...), nil
}

// refWriter is the memo-free writer behind referenceEncode.
type refWriter struct {
	buf      []byte
	counting bool
	n        int
	err      error
}

func (w *refWriter) entry(e *Entry) {
	w.raw(magic)
	w.uvarint(Version)
	w.str(e.SettingID)
	w.str(e.SourceID)
	w.str(e.TargetID)
	if e.Kind == KindTractable {
		w.byteVal(kindByteTractable)
	} else {
		w.byteVal(kindByteGeneric)
	}
	w.str(e.SourceText)
	w.str(e.TargetText)
	if e.Kind == KindTractable {
		w.tractable(e.Tractable)
	} else {
		w.generic(e.Generic)
	}
}

func (w *refWriter) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("snap: encode: "+format, args...)
	}
}

func (w *refWriter) raw(s string) {
	if w.counting {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

func (w *refWriter) byteVal(b byte) {
	if w.counting {
		w.n++
		return
	}
	w.buf = append(w.buf, b)
}

func (w *refWriter) uvarint(v uint64) {
	if w.counting {
		w.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *refWriter) count(n int, what string) {
	if n < 0 || n > maxCounter {
		w.fail("%s %d out of range", what, n)
		return
	}
	w.uvarint(uint64(n))
}

func (w *refWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.raw(s)
}

func (w *refWriter) boolVal(b bool) {
	if b {
		w.byteVal(1)
	} else {
		w.byteVal(0)
	}
}

func (w *refWriter) value(v rel.Value) {
	if v.IsNull() {
		w.byteVal(tagNull)
		w.count(v.NullID(), "null id")
		return
	}
	w.byteVal(tagConst)
	w.str(v.ConstText())
}

func (w *refWriter) instance(inst *rel.Instance) {
	names := inst.RelationNames()
	w.count(len(names), "relation count")
	for _, name := range names {
		r := inst.Relation(name)
		w.str(name)
		w.count(r.Arity(), "arity")
		w.count(r.LiveLen(), "tuple count")
		for i := 0; i < r.Len(); i++ {
			if !r.Live(i) {
				continue
			}
			for _, v := range r.TupleAt(i) {
				w.value(v)
			}
		}
	}
}

func (w *refWriter) watermark(inst *rel.Instance) {
	names := inst.RelationNames()
	w.count(len(names), "watermark entries")
	for _, name := range names {
		w.str(name)
		w.count(inst.Relation(name).LiveLen(), "watermark count")
	}
}

func (w *refWriter) result(res *chase.Result) {
	if res == nil || res.Instance == nil || res.Start == nil {
		w.fail("chase result is missing its instances")
		return
	}
	w.instance(res.Instance)
	w.watermark(res.Instance)
	w.instance(res.Start)
	w.count(res.Steps, "steps")
	w.boolVal(res.Failed)
	w.str(res.FailedOn)
	w.boolVal(res.EgdFired)
	w.count(res.Merges, "merges")
	w.count(res.Finds, "finds")
	w.boolVal(res.UnionFind != nil)
	if res.UnionFind != nil {
		pairs := res.UnionFind.Snapshot()
		w.count(len(pairs), "union-find pairs")
		for _, p := range pairs {
			w.value(p[0])
			w.value(p[1])
		}
	}
}

func (w *refWriter) tractable(t *core.TractableTrace) {
	if t == nil || t.JCan == nil || t.ICan == nil {
		w.fail("tractable trace is missing its canonical instances")
		return
	}
	w.result(t.STResult)
	w.result(t.TSResult)
	w.count(t.NullState, "null state")
	w.instance(t.JCan)
	w.instance(t.ICan)
}

func (w *refWriter) generic(ct *core.CanonicalTarget) {
	if ct == nil {
		w.fail("canonical target is nil")
		return
	}
	if ct.TFailed == (ct.JCan != nil) {
		w.fail("canonical target presence inconsistent with failure flag")
		return
	}
	if ct.TFailed && ct.TResult == nil {
		w.fail("failed target chase without its result")
		return
	}
	w.result(ct.STResult)
	w.boolVal(ct.TResult != nil)
	if ct.TResult != nil {
		w.result(ct.TResult)
	}
	w.boolVal(ct.TFailed)
	w.boolVal(ct.JCan != nil)
	if ct.JCan != nil {
		w.instance(ct.JCan)
	}
	w.count(ct.NullState, "null state")
}

// dirty returns a buffer of length n and capacity c whose every byte,
// the spare capacity included, is junk.
func dirty(n, c int) []byte {
	return bytes.Repeat([]byte{0xa5}, c)[:n]
}

// checkEncoders requires Encode and AppendEncode to produce exactly
// referenceEncode's bytes for e: AppendEncode into nothing, into
// too-small and larger buffers holding stale bytes, and after a prefix
// it must keep. It returns the reference bytes.
func checkEncoders(t testing.TB, e *Entry) []byte {
	t.Helper()
	want, err := referenceEncode(e)
	if err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	got, err := Encode(e)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Encode differs from the reference (%d vs %d bytes, err %v)", len(got), len(want), err)
	}
	if len(got) != cap(got) {
		t.Fatalf("Encode sized %d bytes for %d", cap(got), len(got))
	}
	for _, dst := range [][]byte{nil, dirty(0, 16), dirty(0, len(want)-1), dirty(0, 2*len(want)+64), dirty(5, 5), dirty(7, len(want)+64)} {
		prefix := bytes.Clone(dst)
		out, err := AppendEncode(dst, e)
		if err != nil {
			t.Fatalf("AppendEncode into len %d cap %d: %v", len(dst), cap(dst), err)
		}
		if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want) {
			t.Fatalf("AppendEncode into len %d cap %d differs from the reference", len(dst), cap(dst))
		}
	}
	return want
}

// relationUses reports how many relations e's instances store and how
// many distinct *rel.Relation values among them an encode writes from
// their tuples; it copies the bytes of the rest.
func relationUses(e *Entry) (uses, distinct int) {
	w := &writer{counting: true}
	w.entry(e)
	var insts []*rel.Instance
	add := func(res *chase.Result) {
		if res != nil {
			insts = append(insts, res.Instance, res.Start)
		}
	}
	if t := e.Tractable; t != nil {
		add(t.STResult)
		add(t.TSResult)
		insts = append(insts, t.JCan, t.ICan)
	}
	if ct := e.Generic; ct != nil {
		add(ct.STResult)
		add(ct.TResult)
		if ct.JCan != nil {
			insts = append(insts, ct.JCan)
		}
	}
	for _, inst := range insts {
		uses += len(inst.RelationNames())
	}
	return uses, len(w.spans)
}

// entryOf wraps an artifact of either kind as an entry with its
// instance texts.
func entryOf(k int, i, j *rel.Instance, tr *core.TractableTrace, ct *core.CanonicalTarget) *Entry {
	e := &Entry{
		SettingID:  fmt.Sprintf("sha256:s%d", k),
		SourceID:   fmt.Sprintf("sha256:i%d", k),
		TargetID:   fmt.Sprintf("sha256:j%d", k),
		Kind:       KindTractable,
		SourceText: pde.FormatInstance(i),
		TargetText: pde.FormatInstance(j),
		Tractable:  tr,
		Generic:    ct,
	}
	if ct != nil {
		e.Kind = KindGeneric
	}
	return e
}

// TestEncodersMatchReferenceOnRandomWorkloads runs the encoders over
// the workloads of the round-trip property test, drawn from the same
// seed in the same order: LAV traces, random generic settings and
// keyed-egd fixpoints with union-find state, each keyed one also after
// a resume. The LAV traces must share relations, so the copy path runs.
func TestEncodersMatchReferenceOnRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	copied := 0
	lav := workload.LAVSetting()
	for k := 0; k < 20; k++ {
		n := 5 + rng.Intn(40)
		i, j := workload.LAVInstance(n, k%2 == 0, rng)
		tr, err := core.ChaseCanonicalTractable(lav, i, j, core.TractableOptions{})
		if err != nil {
			t.Fatalf("lav trace n=%d: %v", n, err)
		}
		e := entryOf(k, i, j, tr, nil)
		checkEncoders(t, e)
		uses, distinct := relationUses(e)
		if distinct >= uses {
			t.Fatalf("LAV(%d) trace: %d distinct relations of %d stored, want sharing", n, distinct, uses)
		}
		copied += uses - distinct
	}
	for k := 0; k < 20; k++ {
		s := oracle.RandomSetting(rng)
		i, j := oracle.RandomInstance(rng)
		ct, err := core.ChaseCanonicalTarget(s, i, j, core.SolveOptions{})
		if err != nil {
			t.Fatalf("random canonical target: %v", err)
		}
		checkEncoders(t, entryOf(k, i, j, nil, ct))
	}
	keyed := workload.KeyedLAVSetting()
	for k := 0; k < 20; k++ {
		n := 8 + 4*k
		i, j := workload.KeyedLAVInstance(n)
		ct, err := core.ChaseCanonicalTarget(keyed, i, j, core.SolveOptions{})
		if err != nil {
			t.Fatalf("keyed canonical target n=%d: %v", n, err)
		}
		if ct.TResult == nil || ct.TResult.UnionFind == nil {
			t.Fatalf("keyed n=%d retained no union-find state", n)
		}
		checkEncoders(t, entryOf(k, i, j, nil, ct))
		ct, _, _, err = core.ResumeCanonicalTarget(keyed, ct, workload.KeyedLAVAppend(n, 4), core.SolveOptions{})
		if err != nil {
			t.Fatalf("keyed resume n=%d: %v", n, err)
		}
		checkEncoders(t, entryOf(k, i, j, nil, ct))
	}
	t.Logf("LAV traces: %d relation uses copied", copied)
}

// TestEncodersMatchReferenceOnResumedChain checks every link of an
// 8-link chain of LAV appends, each resumed from the trace before it.
// A resumed trace shares some relations between its instances and
// holds fresh copies of others, so the memo both hits and misses.
func TestEncodersMatchReferenceOnResumedChain(t *testing.T) {
	lav := workload.LAVSetting()
	i, j := workload.LAVInstance(200, true, rand.New(rand.NewSource(200)))
	tr, err := core.ChaseCanonicalTractable(lav, i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkEncoders(t, entryOf(0, i, j, tr, nil))
	for k := 0; k < 8; k++ {
		next, resumed, _, err := core.ResumeCanonicalTractable(lav, tr, workload.LAVAppendFrom(16*k, 16), core.TractableOptions{})
		if err != nil || !resumed {
			t.Fatalf("link %d: resumed=%v err=%v", k, resumed, err)
		}
		tr = next
		e := entryOf(k+1, i, j, tr, nil)
		checkEncoders(t, e)
		if uses, distinct := relationUses(e); distinct <= 1 || distinct >= uses {
			t.Fatalf("link %d: %d distinct relations of %d stored, want partial sharing", k, distinct, uses)
		}
	}
}

// appendEncodeAllocs is what AppendEncode of the LAV(1,600) trace into
// a buffer with room allocates: six name lists and the memo map, whose
// four entries take two allocations.
const appendEncodeAllocs = 8

// lavEntry1600 is the entry of the LAV(1,600) trace that the
// snapshot-save benchmark encodes.
func lavEntry1600(t *testing.T) *Entry {
	t.Helper()
	i, j := workload.LAVInstance(1600, true, rand.New(rand.NewSource(1600)))
	tr, err := core.ChaseCanonicalTractable(workload.LAVSetting(), i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return entryOf(1600, i, j, tr, nil)
}

// TestAppendEncodeAllocs pins what a save into a buffer that already
// has room allocates: the memo map and the sorted relation-name list of
// each of the trace's six instances, none of it proportional to the
// tuples.
func TestAppendEncodeAllocs(t *testing.T) {
	e := lavEntry1600(t)
	want := checkEncoders(t, e)
	buf := make([]byte, 0, len(want))
	var err error
	n := testing.AllocsPerRun(20, func() { buf, err = AppendEncode(buf[:0], e) })
	if err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("AppendEncode into a reused buffer differs from the reference (err %v)", err)
	}
	if n > appendEncodeAllocs {
		t.Fatalf("AppendEncode into a buffer with room allocates %.0f times, want at most %d", n, appendEncodeAllocs)
	}
}

// TestAppendEncodeFailure requires every encode failure to come back
// as the reference encoder's error, with dst's bytes and nothing else:
// no partial body and no checksum. The negative null state fails last,
// after the writer has appended everything else.
func TestAppendEncodeFailure(t *testing.T) {
	i, j := workload.LAVInstance(20, true, rand.New(rand.NewSource(20)))
	tr, err := core.ChaseCanonicalTractable(workload.LAVSetting(), i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	late := *tr
	late.NullState = -1
	noStart := *tr.TSResult
	noStart.Start = nil
	headless := *tr
	headless.TSResult = &noStart
	for _, e := range []*Entry{
		{Kind: "weird"},
		{Kind: KindTractable},
		{Kind: KindGeneric, Generic: &core.CanonicalTarget{}},
		entryOf(1, i, j, &headless, nil),
		entryOf(2, i, j, &late, nil),
	} {
		_, want := referenceEncode(e)
		if want == nil {
			t.Fatalf("kind %q: the reference encoder accepted a broken entry", e.Kind)
		}
		if data, err := Encode(e); data != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("Encode = %d bytes, %v; want nil, %v", len(data), err, want)
		}
		for _, dst := range [][]byte{nil, dirty(0, 8), dirty(3, 3), dirty(6, 1<<16)} {
			prefix := bytes.Clone(dst)
			out, err := AppendEncode(dst, e)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("AppendEncode error %v, want %v", err, want)
			}
			if !bytes.Equal(out, prefix) {
				t.Fatalf("failed AppendEncode into len %d returned %d bytes", len(prefix), len(out))
			}
		}
	}
}

// fuzzSeeds are FuzzSnapshotDecode's seeds (cmd/pdxfuzz): a LAV(8)
// trace and a keyed(12) canonical target, a truncation and a bit flip
// of each, the empty input, the bare magic, and the LAV seed with one
// value changed in a repeated copy of its Person relation.
func fuzzSeeds(f *testing.F) [][]byte {
	const persons = 8
	rng := rand.New(rand.NewSource(7))
	li, lj := workload.LAVInstance(persons, true, rng)
	tr, err := core.ChaseCanonicalTractable(workload.LAVSetting(), li, lj, core.TractableOptions{})
	if err != nil {
		f.Fatal(err)
	}
	ki, kj := workload.KeyedLAVInstance(12)
	ct, err := core.ChaseCanonicalTarget(workload.KeyedLAVSetting(), ki, kj, core.SolveOptions{})
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, e := range []*Entry{
		{SettingID: "sha256:s", SourceID: "sha256:i", TargetID: "sha256:j", Kind: KindTractable,
			SourceText: pde.FormatInstance(li), TargetText: pde.FormatInstance(lj), Tractable: tr},
		{SettingID: "sha256:s", SourceID: "sha256:k", TargetID: "sha256:l", Kind: KindGeneric,
			SourceText: pde.FormatInstance(ki), TargetText: pde.FormatInstance(kj), Generic: ct},
	} {
		data, err := Encode(e)
		if err != nil {
			f.Fatal(err)
		}
		flip := bytes.Clone(data)
		flip[len(flip)/3] ^= 1
		seeds = append(seeds, data, data[:len(data)/2], flip)
	}
	seeds = append(seeds, []byte{}, []byte(magic))

	// The diverged copy: the second stored Person relation (the Σst
	// start's) with its first constant changed, checksum recomputed.
	hdr := binary.AppendUvarint(nil, uint64(len("Person")))
	hdr = append(hdr, "Person"...)
	hdr = binary.AppendUvarint(hdr, 2)
	hdr = binary.AppendUvarint(hdr, persons)
	body := bytes.Clone(seeds[0][:len(seeds[0])-sha256.Size])
	at := bytes.Index(body, hdr) + len(hdr)
	next := bytes.Index(body[at:], hdr)
	if at < len(hdr) || next < 0 {
		f.Fatal("the LAV seed stores Person fewer than twice")
	}
	body[at+next+len(hdr)+2] ^= 1
	diverged := AppendChecksum(body)
	if _, err := Decode(diverged); err != nil {
		f.Fatalf("diverged copy does not decode: %v", err)
	}
	return append(seeds, diverged)
}

// FuzzEncodeMatchesReference decodes arbitrary input and requires
// every accepted entry, whose instances share the relations the decoder
// built from repeated bytes, to encode identically through Encode,
// AppendEncode into dirty buffers and referenceEncode.
func FuzzEncodeMatchesReference(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			return
		}
		if want := checkEncoders(t, e); !bytes.Equal(want, data) {
			t.Fatalf("accepted input is not canonical: %d bytes in, %d bytes out", len(data), len(want))
		}
	})
}
