// Package snap implements the durable snapshot format for chased
// artifacts: a versioned, deterministic binary codec for the
// core.TractableTrace and core.CanonicalTarget values pdxd caches, plus
// a directory store with atomic writes (see Store).
//
// A snapshot file is
//
//	magic (8 bytes) | format version (uvarint) | body | sha256 footer
//
// where the footer covers every preceding byte. The body embeds the
// cache identity (setting and instance content hashes), the canonical
// text of both instances (so a warm start can re-register them and
// verify the hashes), and the artifact itself: chase results with their
// fixpoint instances (live tuples only — fixpoints are post-Compact),
// semi-naive resume watermarks (hom.Delta), union-find merge state
// (rel.UnionFind snapshots), and null-source high-water marks.
//
// The codec is canonical in both directions: Encode emits one unique
// byte string per artifact (relations sorted by name, watermarks sorted,
// union-find pairs in rel.UnionFind.Snapshot order, minimal varints),
// and Decode rejects any input that is not exactly what Encode would
// produce — non-minimal varints, unsorted or duplicate relations,
// duplicate tuples, non-canonical union-find pairs, trailing bytes, or
// a checksum mismatch. Decoding a truncated, corrupted, or
// newer-versioned file fails with an error wrapping ErrTruncated,
// ErrCorrupt, or ErrVersion; a successful Decode therefore guarantees
// Encode(Decode(data)) == data, the invariant the fuzz target and the
// peer warm-transfer protocol rely on.
package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/hom"
	"repro/internal/rel"
)

// magic identifies a snapshot file; the leading non-ASCII byte keeps
// text tools from mistaking snapshots for text.
const magic = "\x89PDXSNAP"

// Version is the format version this build reads and writes. Decode
// rejects any other version; Store.Open refuses directories holding a
// newer one.
const Version = 1

// Artifact kinds, matching the server's cache-kind labels.
const (
	KindTractable = "tractable"
	KindGeneric   = "generic"
)

const (
	kindByteTractable = 1
	kindByteGeneric   = 2

	tagConst = 0
	tagNull  = 1

	// maxCounter bounds every decoded integer that is not directly
	// limited by the remaining input: step/merge/find counters, null
	// ids, and null-source states. Far above anything a real chase
	// produces, low enough that arithmetic on decoded values never
	// overflows.
	maxCounter = 1 << 40

	// maxArity bounds decoded relation arities.
	maxArity = 1 << 16
)

// Decode error sentinels. Every Decode failure wraps exactly one of
// them, so callers can distinguish a short read from active corruption
// from a format-version skew.
var (
	ErrTruncated = errors.New("snap: truncated snapshot")
	ErrBadMagic  = errors.New("snap: not a snapshot file")
	ErrVersion   = errors.New("snap: unsupported snapshot format version")
	ErrCorrupt   = errors.New("snap: corrupt snapshot")
)

// Entry is one cached chased artifact together with everything a cold
// daemon needs to validate and re-install it: the content hashes that
// key the cache and the canonical instance texts behind the hashes.
// Exactly one of Tractable/Generic is set, per Kind.
type Entry struct {
	// SettingID, SourceID, TargetID are the content hashes
	// ("sha256:<hex>") keying the server's chase cache.
	SettingID string
	SourceID  string
	TargetID  string
	// Kind is KindTractable or KindGeneric.
	Kind string
	// SourceText and TargetText are the canonical instance texts
	// (pde.FormatInstance output). A warm start re-hashes them against
	// SourceID/TargetID before trusting the artifact.
	SourceText string
	TargetText string
	// Tractable is the artifact when Kind == KindTractable.
	Tractable *core.TractableTrace
	// Generic is the artifact when Kind == KindGeneric.
	Generic *core.CanonicalTarget
}

// Key returns the snapshot key for a cached artifact: the hex sha256 of
// the composite cache identity. It names the file inside a Store and
// the entry in the peer warm-transfer API, and is safe as both a file
// name and a URL path segment. pdxd keys its chase cache by it, so the
// identity is hashed in a stack buffer (content IDs are 71 bytes, so
// three of them and a kind fit) and only the result string allocates.
func Key(settingID, srcID, tgtID, kind string) string {
	var buf [256]byte
	b := append(buf[:0], settingID...)
	b = append(append(b, 0), srcID...)
	b = append(append(b, 0), tgtID...)
	b = append(append(b, 0), kind...)
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// Encode serializes the entry. The output is canonical: encoding the
// result of Decode reproduces the decoded bytes exactly. Encode is
// AppendEncode(nil, e), so a counting pass sizes the output and the
// bytes fill one allocation; the writer's relation memo and the
// instances' name lists are the only others.
func Encode(e *Entry) ([]byte, error) {
	return AppendEncode(nil, e)
}

// AppendEncode appends the encoding of e to dst and returns the
// extended buffer; the bytes it appends are exactly Encode(e), the
// checksum covering them alone. A relation that the artifact's
// instances share copy-on-write is encoded once and its bytes copied
// at every later use, so a save costs the artifact's distinct bytes;
// no instance of e may be written while it is encoded.
// Only when dst has no capacity does a counting pass size the buffer
// first; otherwise append grows dst as needed, so a caller that passes
// the previous result back (as buf[:0]) encodes without allocating
// the output. On failure it returns dst's bytes, possibly moved to a
// larger buffer, with nothing appended, and the error.
func AppendEncode(dst []byte, e *Entry) ([]byte, error) {
	if e.Kind != KindTractable && e.Kind != KindGeneric {
		return dst, fmt.Errorf("snap: encode: unknown artifact kind %q", e.Kind)
	}
	w := &writer{buf: dst}
	if cap(dst) == 0 {
		w.counting = true
		w.entry(e)
		if w.err != nil {
			return dst, w.err
		}
		w.buf = make([]byte, 0, w.n+sha256.Size)
		w.counting = false
		clear(w.spans)
	}
	w.entry(e)
	if w.err != nil {
		return w.buf[:len(dst)], w.err
	}
	sum := sha256.Sum256(w.buf[len(dst):])
	return append(w.buf, sum[:]...), nil
}

// entry writes the body of e, whose kind is one of the two known.
func (w *writer) entry(e *Entry) {
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

// Decode parses and validates a snapshot. It never panics on arbitrary
// input; failures wrap ErrTruncated, ErrBadMagic, ErrVersion, or
// ErrCorrupt. The returned artifact is ready for the solve paths: its
// canonical instances are frozen and a tractable trace has its block
// decomposition recomputed.
func Decode(data []byte) (*Entry, error) {
	if len(data) < len(magic)+1+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	body := data[:len(data)-sha256.Size]
	r := &reader{buf: body, off: len(magic)}
	v := r.varint("format version", "", "")
	if r.err != nil {
		return nil, r.err
	}
	if v != Version {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, v, Version)
	}
	e := &Entry{
		SettingID: r.str("setting id", ""),
		SourceID:  r.str("source id", ""),
		TargetID:  r.str("target id", ""),
	}
	switch k := r.byteVal("artifact kind", ""); {
	case r.err != nil:
	case k == kindByteTractable:
		e.Kind = KindTractable
	case k == kindByteGeneric:
		e.Kind = KindGeneric
	default:
		r.fail(ErrCorrupt, "unknown artifact kind byte %d", k)
	}
	e.SourceText = r.str("source instance text", "")
	e.TargetText = r.str("target instance text", "")
	switch e.Kind {
	case KindTractable:
		e.Tractable = r.tractable()
	case KindGeneric:
		e.Generic = r.generic()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes before checksum", ErrCorrupt, len(body)-r.off)
	}
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], data[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return e, nil
}

// AppendChecksum appends the sha256 footer over body and returns the
// complete snapshot bytes. It exists for tests and fuzz harnesses that
// construct or mutate snapshot bodies directly; AppendEncode computes
// the same footer over the bytes it appends.
func AppendChecksum(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// HeaderVersion reads just the magic and format version, for directory
// scans that must detect newer formats without decoding bodies.
func HeaderVersion(data []byte) (uint64, error) {
	if len(data) < len(magic)+1 {
		return 0, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return 0, ErrBadMagic
	}
	v, n := binary.Uvarint(data[len(magic):])
	if n <= 0 {
		return 0, fmt.Errorf("%w: unreadable format version", ErrCorrupt)
	}
	return v, nil
}

// fixpointWatermark builds the semi-naive resume watermark of a chase
// fixpoint: one count per relation, equal to its live tuple length. At
// a fixpoint every dependency's per-tgd watermark has caught up to the
// full instance, so the single Delta stands for all of them; a resumed
// chase re-derives its per-dependency marks from exactly these counts.
func fixpointWatermark(inst *rel.Instance) hom.Delta {
	d := make(hom.Delta)
	for _, name := range inst.RelationNames() {
		d[name] = inst.Relation(name).LiveLen()
	}
	return d
}

// writer accumulates the encoding with a sticky error. A counting
// writer writes nothing and only adds up in n the bytes it would
// write, so one pass sizes the buffer of the next.
type writer struct {
	buf      []byte
	counting bool
	n        int
	err      error
	// spans maps each relation this pass has written to the offsets
	// (see pos) of its encoding after the name. The relations of an
	// artifact are not written while it is encoded, so a pointer seen
	// again stands for the same bytes, which are copied, not encoded.
	spans map[*rel.Relation][2]int
}

// pos is the writer's offset: the bytes written, or counted.
func (w *writer) pos() int {
	if w.counting {
		return w.n
	}
	return len(w.buf)
}

func (w *writer) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("snap: encode: "+format, args...)
	}
}

func (w *writer) raw(s string) {
	if w.counting {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

func (w *writer) byteVal(b byte) {
	if w.counting {
		w.n++
		return
	}
	w.buf = append(w.buf, b)
}

func (w *writer) uvarint(v uint64) {
	if w.counting {
		w.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) count(n int, what string) {
	if n < 0 || n > maxCounter {
		w.fail("%s %d out of range", what, n)
		return
	}
	w.uvarint(uint64(n))
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.raw(s)
}

func (w *writer) boolVal(b bool) {
	if b {
		w.byteVal(1)
	} else {
		w.byteVal(0)
	}
}

func (w *writer) value(v rel.Value) {
	if v.IsNull() {
		w.byteVal(tagNull)
		w.count(v.NullID(), "null id")
		return
	}
	w.byteVal(tagConst)
	w.str(v.ConstText())
}

// instance encodes the live tuples of an instance: relations sorted by
// name (empty ones omitted), tuples in slot order skipping tombstones.
// It returns the names it wrote.
func (w *writer) instance(inst *rel.Instance) []string {
	names := inst.RelationNames()
	w.count(len(names), "relation count")
	for _, name := range names {
		w.str(name)
		w.relation(inst.Relation(name))
	}
	return names
}

// relation encodes r's arity, live tuple count and live tuples, or
// copies them when this pass has already written r.
func (w *writer) relation(r *rel.Relation) {
	if s, ok := w.spans[r]; ok {
		if w.counting {
			w.n += s[1] - s[0]
		} else {
			w.buf = append(w.buf, w.buf[s[0]:s[1]]...)
		}
		return
	}
	start := w.pos()
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
	if w.spans == nil {
		w.spans = make(map[*rel.Relation][2]int)
	}
	w.spans[r] = [2]int{start, w.pos()}
}

// watermark encodes the fixpoint's resume watermark (see
// fixpointWatermark) in sorted order; names are inst's relation names.
func (w *writer) watermark(inst *rel.Instance, names []string) {
	w.count(len(names), "watermark entries")
	for _, name := range names {
		w.str(name)
		w.count(inst.Relation(name).LiveLen(), "watermark count")
	}
}

// result encodes a chase.Result: fixpoint, watermark, start instance,
// counters, and the union-find merge state when the run retained one.
func (w *writer) result(res *chase.Result) {
	if res == nil || res.Instance == nil || res.Start == nil {
		w.fail("chase result is missing its instances")
		return
	}
	w.watermark(res.Instance, w.instance(res.Instance))
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

func (w *writer) tractable(t *core.TractableTrace) {
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

func (w *writer) generic(ct *core.CanonicalTarget) {
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

// reader parses the encoding with bounds checks and a sticky error. No
// allocation is sized from an untrusted count without first bounding
// the count by the remaining input.
//
// Each read names its field for errors by a section label (what, e.g.
// "Σts start") and a constant suffix (field, e.g. " tag"). They are
// joined only inside fail, so a clean decode builds no error text, yet
// a corrupt file still gets an error naming where decoding stopped.
type reader struct {
	buf []byte
	off int
	err error
	// interned maps a constant's text to its Value for this decode.
	// rel.Const already dedups texts process-wide; the map stays because
	// a hit looks the raw bytes up without building a temporary string,
	// and chase artifacts repeat the same constants in fixpoints,
	// starts, and canonical instances.
	interned map[string]rel.Value
	// spans maps a relation name to the relations this decode has built
	// cleanly under that name, each with the exact bytes it was built
	// from (see instance).
	spans map[string][]span
}

// span records one relation the reader built: its header, the offsets
// of its tuple bytes in buf, and the instance holding it.
type span struct {
	arity, n   int
	start, end int
	inst       *rel.Instance
}

func (r *reader) fail(sentinel error, format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{sentinel}, args...)...)
	}
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

// uvarintLen returns the number of bytes the minimal encoding of v
// occupies.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// varint reads a minimal uvarint; what+field+unit names it in errors.
func (r *reader) varint(what, field, unit string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.fail(ErrTruncated, "reading %s%s%s", what, field, unit)
		return 0
	case n < 0:
		r.fail(ErrCorrupt, "varint overflow in %s%s%s", what, field, unit)
		return 0
	case n != uvarintLen(v):
		r.fail(ErrCorrupt, "non-minimal varint in %s%s%s", what, field, unit)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) count(what, field string, max int) int {
	v := r.varint(what, field, "")
	if r.err != nil {
		return 0
	}
	if v > uint64(max) {
		r.fail(ErrCorrupt, "%s%s %d exceeds limit %d", what, field, v, max)
		return 0
	}
	return int(v)
}

// prefixed reads a length-prefixed byte string. The result aliases buf.
func (r *reader) prefixed(what, field string) []byte {
	v := r.varint(what, field, " length")
	if r.err != nil {
		return nil
	}
	if v > uint64(r.remaining()) {
		r.fail(ErrTruncated, "%s%s of %d bytes with %d remaining", what, field, v, r.remaining())
		return nil
	}
	b := r.buf[r.off : r.off+int(v)]
	r.off += int(v)
	return b
}

func (r *reader) str(what, field string) string { return string(r.prefixed(what, field)) }

func (r *reader) byteVal(what, field string) byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail(ErrTruncated, "reading %s%s", what, field)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) boolVal(what, field string) bool {
	b := r.byteVal(what, field)
	if r.err != nil {
		return false
	}
	if b > 1 {
		r.fail(ErrCorrupt, "%s%s byte %d is not a bool", what, field, b)
		return false
	}
	return b == 1
}

func (r *reader) value(what string) rel.Value {
	switch tag := r.byteVal(what, " tag"); {
	case r.err != nil:
		return rel.Value{}
	case tag == tagConst:
		return r.constValue(what)
	case tag == tagNull:
		return rel.Null(r.count(what, " null id", maxCounter))
	default:
		r.fail(ErrCorrupt, "unknown %s tag %d", what, tag)
		return rel.Value{}
	}
}

// constValue reads a constant's text and returns its interned Value:
// the map lookup keyed by the raw bytes allocates nothing on a hit.
func (r *reader) constValue(what string) rel.Value {
	b := r.prefixed(what, " constant")
	if r.err != nil {
		return rel.Value{}
	}
	if val, ok := r.interned[string(b)]; ok {
		return val
	}
	if r.interned == nil {
		r.interned = make(map[string]rel.Value)
	}
	val := rel.Const(string(b))
	r.interned[val.ConstText()] = val
	return val
}

// instance reads one instance. A relation whose header and tuple bytes
// repeat a relation this decode already built is shared with it
// copy-on-write instead of being built again, the way the chase shares
// relations between the instances of a fresh artifact. That is sound
// because the encoding is canonical and self-delimiting: given the
// name, arity and tuple count, equal bytes decode to an equal relation,
// and the first copy already passed every check.
func (r *reader) instance(what string) *rel.Instance {
	inst := rel.NewInstance()
	nrels := r.count(what, " relation count", r.remaining())
	prev := ""
	for k := 0; k < nrels && r.err == nil; k++ {
		name := r.str(what, " relation name")
		if r.err != nil {
			break
		}
		if k > 0 && name <= prev {
			r.fail(ErrCorrupt, "%s relation %q out of order", what, name)
			break
		}
		prev = name
		arity := r.count(what, " arity", maxArity)
		n := r.count(what, " tuple count", maxCounter)
		if r.err != nil {
			break
		}
		if n == 0 {
			r.fail(ErrCorrupt, "%s relation %q with no tuples", what, name)
			break
		}
		// Every value occupies at least two bytes; a nullary relation
		// has exactly one distinct tuple.
		if arity == 0 && n > 1 {
			r.fail(ErrCorrupt, "%s nullary relation %q with %d tuples", what, name, n)
			break
		}
		if arity > 0 && n > r.remaining()/(2*arity) {
			r.fail(ErrTruncated, "%s relation %q claims %d tuples of arity %d", what, name, n, arity)
			break
		}
		if r.share(inst, name, arity, n) {
			continue
		}
		start := r.off
		// n is bounded by the remaining input, so the slab and the
		// reserved containers are sized by trusted counts. The slab
		// backs every tuple of the relation; ownership transfers to the
		// instance via AddOwnedTuple.
		inst.Reserve(name, arity, n)
		slab := make(rel.Tuple, n*arity)
		for t := 0; t < n && r.err == nil; t++ {
			tup := slab[:arity:arity]
			slab = slab[arity:]
			for a := 0; a < arity; a++ {
				tup[a] = r.value(what)
			}
			if r.err != nil {
				break
			}
			if !inst.AddOwnedTuple(name, tup) {
				r.fail(ErrCorrupt, "%s relation %q holds a duplicate tuple", what, name)
			}
		}
		if r.err == nil {
			if r.spans == nil {
				r.spans = make(map[string][]span)
			}
			r.spans[name] = append(r.spans[name], span{arity, n, start, r.off, inst})
		}
	}
	return inst
}

// share gives inst the relation this decode already built from the
// bytes at the read offset, when there is one with the same name, arity
// and tuple count, and skips those bytes. It reports whether it did.
func (r *reader) share(inst *rel.Instance, name string, arity, n int) bool {
	for _, s := range r.spans[name] {
		if s.arity == arity && s.n == n && bytes.HasPrefix(r.buf[r.off:], r.buf[s.start:s.end]) {
			inst.ShareRelation(s.inst, name)
			r.off += s.end - s.start
			return true
		}
	}
	return false
}

// watermark reads the resume watermark and checks it against the
// fixpoint it was stored with: sorted, and every count equal to the
// relation's live length. The watermark carries no information beyond
// the fixpoint — exactly the invariant a resume depends on — so a
// mismatch means corruption.
func (r *reader) watermark(inst *rel.Instance) {
	n := r.count("watermark", " entries", r.remaining())
	got := make(hom.Delta, n)
	prev := ""
	for k := 0; k < n && r.err == nil; k++ {
		name := r.str("watermark", " relation")
		c := r.count("watermark", " count", maxCounter)
		if r.err != nil {
			break
		}
		if k > 0 && name <= prev {
			r.fail(ErrCorrupt, "watermark relation %q out of order", name)
			break
		}
		prev = name
		got[name] = c
	}
	if r.err != nil {
		return
	}
	want := fixpointWatermark(inst)
	if len(got) != len(want) {
		r.fail(ErrCorrupt, "watermark covers %d relations, fixpoint has %d", len(got), len(want))
		return
	}
	for _, name := range want.Names() {
		if got[name] != want[name] {
			r.fail(ErrCorrupt, "watermark of %q is %d, fixpoint holds %d live tuples", name, got[name], want[name])
			return
		}
	}
}

// unionFind reads a canonical rel.UnionFind snapshot: pairs sorted
// strictly by member, member != representative, and no representative
// merged away itself. These are exactly the properties
// rel.UnionFind.Snapshot guarantees, so accepting only them keeps the
// re-encode byte-identical.
func (r *reader) unionFind() *rel.UnionFind {
	n := r.count("union-find", " pairs", r.remaining()/4)
	pairs := make([][2]rel.Value, 0, n)
	members := make(map[rel.Value]struct{}, n)
	var prev rel.Value
	for k := 0; k < n && r.err == nil; k++ {
		m := r.value("union-find member")
		rep := r.value("union-find representative")
		if r.err != nil {
			break
		}
		if m == rep {
			r.fail(ErrCorrupt, "union-find pair maps %s to itself", m)
			break
		}
		if k > 0 && !prev.Less(m) {
			r.fail(ErrCorrupt, "union-find member %s out of order", m)
			break
		}
		prev = m
		members[m] = struct{}{}
		pairs = append(pairs, [2]rel.Value{m, rep})
	}
	if r.err != nil {
		return nil
	}
	for _, p := range pairs {
		if _, ok := members[p[1]]; ok {
			r.fail(ErrCorrupt, "union-find representative %s is itself merged away", p[1])
			return nil
		}
	}
	return rel.UnionFindFromSnapshot(pairs)
}

func (r *reader) result(what string) *chase.Result {
	inst := r.instance(what + " fixpoint")
	r.watermark(inst)
	start := r.instance(what + " start")
	steps := r.count(what, " steps", maxCounter)
	failed := r.boolVal(what, " failed flag")
	failedOn := r.str(what, " failed-on label")
	egd := r.boolVal(what, " egd flag")
	merges := r.count(what, " merges", maxCounter)
	finds := r.count(what, " finds", maxCounter)
	var uf *rel.UnionFind
	if r.boolVal(what, " union-find flag") && r.err == nil {
		uf = r.unionFind()
	}
	if r.err != nil {
		return nil
	}
	inst.Freeze()
	start.Freeze()
	return &chase.Result{
		Instance:  inst,
		Steps:     steps,
		Failed:    failed,
		FailedOn:  failedOn,
		Start:     start,
		EgdFired:  egd,
		UnionFind: uf,
		Merges:    merges,
		Finds:     finds,
	}
}

func (r *reader) tractable() *core.TractableTrace {
	st := r.result("Σst")
	ts := r.result("Σts")
	nullState := r.count("null state", "", maxCounter)
	jcan := r.instance("canonical target")
	ican := r.instance("canonical source")
	if r.err != nil {
		return nil
	}
	jcan.Freeze()
	ican.Freeze()
	t := &core.TractableTrace{
		JCan:      jcan,
		ICan:      ican,
		StepsST:   st.Steps,
		StepsTS:   ts.Steps,
		STResult:  st,
		TSResult:  ts,
		NullState: nullState,
	}
	t.FillBlocks()
	return t
}

func (r *reader) generic() *core.CanonicalTarget {
	ct := &core.CanonicalTarget{}
	ct.STResult = r.result("Σst")
	if r.boolVal("Σt", " flag") && r.err == nil {
		ct.TResult = r.result("Σt")
	}
	ct.TFailed = r.boolVal("Σt", " failed flag")
	hasJCan := r.boolVal("canonical target", " flag")
	if hasJCan && r.err == nil {
		ct.JCan = r.instance("canonical target")
	}
	ct.NullState = r.count("null state", "", maxCounter)
	if r.err != nil {
		return nil
	}
	if ct.TFailed == hasJCan {
		r.fail(ErrCorrupt, "canonical target presence inconsistent with failure flag")
		return nil
	}
	if ct.TFailed && ct.TResult == nil {
		r.fail(ErrCorrupt, "failed target chase without its result")
		return nil
	}
	if ct.JCan != nil {
		ct.JCan.Freeze()
	}
	return ct
}
