package snap_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/rel"
	"repro/internal/snap"
	"repro/internal/workload"
	"repro/pde"
)

func fakeID(kind string, n int) string {
	return fmt.Sprintf("sha256:%s%060d", kind, n)
}

// roundTrip asserts the codec's central guarantee on one entry:
// Encode → Decode → Encode is byte-identical, and the decoded entry
// carries the same identity. Encode's counting pass must size its
// buffer exactly, so the bytes fill their one allocation.
func roundTrip(t *testing.T, e *snap.Entry) *snap.Entry {
	t.Helper()
	data, err := snap.Encode(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(data) != cap(data) {
		t.Fatalf("encode sized %d bytes for %d", cap(data), len(data))
	}
	got, err := snap.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.SettingID != e.SettingID || got.SourceID != e.SourceID || got.TargetID != e.TargetID ||
		got.Kind != e.Kind || got.SourceText != e.SourceText || got.TargetText != e.TargetText {
		t.Fatalf("decoded identity diverged: %+v", got)
	}
	again, err := snap.Encode(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encode is not byte-identical: %d vs %d bytes", len(data), len(again))
	}
	return got
}

// TestCodecRoundTripRandomWorkloads is the property test of the
// acceptance criteria: 60 random workloads — tractable LAV traces,
// random generic settings (with Σt egds, full tgds, failing chases),
// and keyed-egd fixpoints whose chases merged nulls through the
// union-find engine and tombstoned collisions — must all round-trip
// byte-identically, and the decoded artifact must solve exactly like
// the original.
func TestCodecRoundTripRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 0

	// Tractable traces over the LAV workload at varying sizes.
	s := workload.LAVSetting()
	for k := 0; k < 20; k++ {
		n := 5 + rng.Intn(40)
		solvable := k%2 == 0
		i, j := workload.LAVInstance(n, solvable, rng)
		trace, err := core.ChaseCanonicalTractable(s, i, j, core.TractableOptions{})
		if err != nil {
			t.Fatalf("lav trace n=%d: %v", n, err)
		}
		e := &snap.Entry{
			SettingID:  fakeID("a", k),
			SourceID:   fakeID("b", k),
			TargetID:   fakeID("c", k),
			Kind:       snap.KindTractable,
			SourceText: pde.FormatInstance(i),
			TargetText: pde.FormatInstance(j),
			Tractable:  trace,
		}
		got := roundTrip(t, e)
		wantOK, _, err := core.ExistsSolutionTractableFrom(i, trace, core.TractableOptions{})
		if err != nil {
			t.Fatalf("verdict on original: %v", err)
		}
		gotOK, _, err := core.ExistsSolutionTractableFrom(i, got.Tractable, core.TractableOptions{})
		if err != nil {
			t.Fatalf("verdict on decoded: %v", err)
		}
		if gotOK != wantOK || got.Tractable.Blocks != trace.Blocks {
			t.Fatalf("decoded trace diverged: ok %v vs %v, blocks %d vs %d",
				gotOK, wantOK, got.Tractable.Blocks, trace.Blocks)
		}
		trials++
	}

	// Random generic settings: join tgds, disjunctive Σts, Σt egds and
	// full tgds, occasionally failing Σt chases.
	sawFailed := false
	for k := 0; k < 20; k++ {
		rs := oracle.RandomSetting(rng)
		i, j := oracle.RandomInstance(rng)
		ct, err := core.ChaseCanonicalTarget(rs, i, j, core.SolveOptions{})
		if err != nil {
			t.Fatalf("random canonical target: %v", err)
		}
		sawFailed = sawFailed || ct.TFailed
		e := &snap.Entry{
			SettingID:  fakeID("d", k),
			SourceID:   fakeID("e", k),
			TargetID:   fakeID("f", k),
			Kind:       snap.KindGeneric,
			SourceText: pde.FormatInstance(i),
			TargetText: pde.FormatInstance(j),
			Generic:    ct,
		}
		got := roundTrip(t, e)
		sopts := core.SolveOptions{MaxNodes: 1_000_000}
		wantOK, _, _, err := core.ExistsSolutionGenericFrom(rs, i, j, ct, sopts)
		if err != nil {
			t.Fatalf("generic verdict on original: %v", err)
		}
		gotOK, _, _, err := core.ExistsSolutionGenericFrom(rs, i, j, got.Generic, sopts)
		if err != nil {
			t.Fatalf("generic verdict on decoded: %v", err)
		}
		if gotOK != wantOK {
			t.Fatalf("decoded canonical target diverged: %v vs %v", gotOK, wantOK)
		}
		trials++
	}

	// Keyed-egd fixpoints: the Σt key egds merge one null per person, so
	// the retained chase results carry union-find state and the merges
	// tombstoned colliding tuples before Compact.
	ks := workload.KeyedLAVSetting()
	sawUF := false
	for k := 0; k < 20; k++ {
		n := 8 + 4*k
		i, j := workload.KeyedLAVInstance(n)
		ct, err := core.ChaseCanonicalTarget(ks, i, j, core.SolveOptions{})
		if err != nil {
			t.Fatalf("keyed canonical target n=%d: %v", n, err)
		}
		if ct.TResult != nil && ct.TResult.UnionFind != nil {
			sawUF = true
		}
		e := &snap.Entry{
			SettingID:  fakeID("0", k),
			SourceID:   fakeID("1", k),
			TargetID:   fakeID("2", k),
			Kind:       snap.KindGeneric,
			SourceText: pde.FormatInstance(i),
			TargetText: pde.FormatInstance(j),
			Generic:    ct,
		}
		got := roundTrip(t, e)

		// A decoded artifact must resume exactly like the original:
		// same incremental-path eligibility, same fixpoint.
		delta := workload.KeyedLAVAppend(n, 4)
		want, wantResumed, _, err := core.ResumeCanonicalTarget(ks, ct, delta, core.SolveOptions{})
		if err != nil {
			t.Fatalf("resume original: %v", err)
		}
		have, haveResumed, _, err := core.ResumeCanonicalTarget(ks, got.Generic, delta, core.SolveOptions{})
		if err != nil {
			t.Fatalf("resume decoded: %v", err)
		}
		if wantResumed != haveResumed {
			t.Fatalf("resume eligibility diverged: %v vs %v", haveResumed, wantResumed)
		}
		if (want.JCan == nil) != (have.JCan == nil) {
			t.Fatalf("resumed JCan presence diverged")
		}
		if want.JCan != nil && want.JCan.String() != have.JCan.String() {
			t.Fatalf("resumed fixpoints diverged:\n%s\nvs\n%s", want.JCan, have.JCan)
		}
		trials++
	}
	if !sawUF {
		t.Fatalf("keyed workloads never produced union-find state; the property test lost its egd coverage")
	}
	if !sawFailed {
		t.Logf("note: no random setting produced a failing Σt chase this seed")
	}
	if trials < 50 {
		t.Fatalf("only %d round-trip trials ran; acceptance requires 50+", trials)
	}
}

// buildEntry returns a small valid snapshot for the rejection tests.
func buildEntry(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	i, j := workload.LAVInstance(6, true, rng)
	trace, err := core.ChaseCanonicalTractable(workload.LAVSetting(), i, j, core.TractableOptions{})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	data, err := snap.Encode(&snap.Entry{
		SettingID:  fakeID("a", 1),
		SourceID:   fakeID("b", 1),
		TargetID:   fakeID("c", 1),
		Kind:       snap.KindTractable,
		SourceText: pde.FormatInstance(i),
		TargetText: pde.FormatInstance(j),
		Tractable:  trace,
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data := buildEntry(t)
	for n := 0; n < len(data); n++ {
		if _, err := snap.Decode(data[:n]); err == nil {
			t.Fatalf("decode accepted a %d-byte prefix of a %d-byte snapshot", n, len(data))
		}
	}
}

func TestDecodeRejectsEveryByteFlip(t *testing.T) {
	data := buildEntry(t)
	mut := make([]byte, len(data))
	for i := range data {
		copy(mut, data)
		mut[i] ^= 0x40
		if _, err := snap.Decode(mut); err == nil {
			t.Fatalf("decode accepted a snapshot with byte %d flipped", i)
		}
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	data := buildEntry(t)
	ver, err := snap.HeaderVersion(data)
	if err != nil || ver != snap.Version {
		t.Fatalf("header version: %d, %v", ver, err)
	}
	// Bump the version byte (it sits right after the 8-byte magic) and
	// refresh the checksum so only the version is wrong.
	mut := append([]byte(nil), data...)
	mut[8] = snap.Version + 1
	mut = refreshChecksum(mut)
	if _, err := snap.Decode(mut); !errors.Is(err, snap.ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
	if ver, err := snap.HeaderVersion(mut); err != nil || ver != snap.Version+1 {
		t.Fatalf("header version after bump: %d, %v", ver, err)
	}
}

func TestDecodeRejectsBadMagicAndEmpty(t *testing.T) {
	if _, err := snap.Decode(nil); !errors.Is(err, snap.ErrTruncated) {
		t.Fatalf("nil input: want ErrTruncated, got %v", err)
	}
	data := buildEntry(t)
	mut := append([]byte(nil), data...)
	mut[0] = 'X'
	if _, err := snap.Decode(mut); !errors.Is(err, snap.ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	if _, err := snap.HeaderVersion([]byte("tiny")); !errors.Is(err, snap.ErrTruncated) {
		t.Fatalf("short header: want ErrTruncated, got %v", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data := buildEntry(t)
	// Splice an extra zero byte before the footer and refresh the
	// checksum: the body no longer ends exactly at the footer boundary.
	body := append([]byte(nil), data[:len(data)-32]...)
	body = append(body, 0)
	mut := refreshChecksum(append(body, make([]byte, 32)...))
	if _, err := snap.Decode(mut); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for trailing bytes, got %v", err)
	}
}

// TestEncodeRejectsIncompleteArtifacts pins the encoder's refusal to
// serialize artifacts that could not be validated back.
func TestEncodeRejectsIncompleteArtifacts(t *testing.T) {
	if _, err := snap.Encode(&snap.Entry{Kind: "weird"}); err == nil {
		t.Fatal("encode accepted an unknown kind")
	}
	if _, err := snap.Encode(&snap.Entry{Kind: snap.KindTractable}); err == nil {
		t.Fatal("encode accepted a nil tractable trace")
	}
	if _, err := snap.Encode(&snap.Entry{Kind: snap.KindGeneric, Generic: &core.CanonicalTarget{}}); err == nil {
		t.Fatal("encode accepted a canonical target without JCan or failure")
	}
}

// TestCodecHandlesEmptyInstances pins the degenerate case: a chase of
// empty instances produces empty fixpoints, which must round-trip too.
func TestCodecHandlesEmptyInstances(t *testing.T) {
	i, j := rel.NewInstance(), rel.NewInstance()
	trace, err := core.ChaseCanonicalTractable(workload.LAVSetting(), i, j, core.TractableOptions{})
	if err != nil {
		t.Fatalf("empty trace: %v", err)
	}
	roundTrip(t, &snap.Entry{
		SettingID: fakeID("a", 9), SourceID: fakeID("b", 9), TargetID: fakeID("c", 9),
		Kind: snap.KindTractable, Tractable: trace,
	})
}

func TestKeyShape(t *testing.T) {
	k := snap.Key("sha256:s", "sha256:i", "sha256:j", snap.KindTractable)
	if len(k) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(k))
	}
	if k == snap.Key("sha256:s", "sha256:i", "sha256:j", snap.KindGeneric) {
		t.Fatal("kind does not separate keys")
	}
}

// TestKeyFormulaAndAllocs pins Key to the hex sha256 of the
// NUL-joined identity, also for identities longer than its stack
// buffer, and holds a lookup with content IDs to one allocation: the
// chase cache hashes a key on every request.
func TestKeyFormulaAndAllocs(t *testing.T) {
	id := fakeID("i", 1)
	long := strings.Repeat("x", 300)
	for _, parts := range [][4]string{{id, id, id, snap.KindTractable}, {long, id, "", snap.KindGeneric}} {
		sum := sha256.Sum256([]byte(strings.Join(parts[:], "\x00")))
		if got, want := snap.Key(parts[0], parts[1], parts[2], parts[3]), hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("Key = %s, want %s", got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { snap.Key(id, id, id, snap.KindTractable) }); n > 1 {
		t.Fatalf("Key allocates %.0f times, want 1", n)
	}
}

// refreshChecksum recomputes the sha256 footer over the body so tests
// can corrupt specific fields without tripping the checksum first.
func refreshChecksum(data []byte) []byte {
	return snap.AppendChecksum(data[:len(data)-32])
}
