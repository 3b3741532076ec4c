package snap_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/snap"
	"repro/internal/workload"
)

// TestSnapshotBytesPinned pins the encoded bytes of fresh and resumed
// artifacts of both kinds to hashes recorded before the Figure 3 trace
// was rebuilt on the canonical target. A change to how either artifact
// is chased, resumed or encoded that alters a single byte — a null
// label, a watermark, a union-find pair, a step count — fails here.
func TestSnapshotBytesPinned(t *testing.T) {
	pin := func(name string, e *snap.Entry, want string) {
		t.Helper()
		data, err := snap.Encode(e)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: encoded sha256 %s, want %s", name, got, want)
		}
	}

	lav := workload.LAVSetting()
	i, j := workload.LAVInstance(50, true, rand.New(rand.NewSource(50)))
	tr, err := core.ChaseCanonicalTractable(lav, i, j, core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pin("tractable fresh", &snap.Entry{Kind: snap.KindTractable, Tractable: tr},
		"8a2334369242b9d4651845894b1e4c4d58401e4336777717832c33ed7b774d0b")
	for _, step := range []struct {
		k    int
		want string
	}{
		{5, "ab8fe07fbea14101e46bf47d536c57d3b849f61d924262569420f11bf051c52e"},
		{6, "e6cec4bd9b64fbce4dbc22ae86a71872cea411fa8c032eb0821c59d480c2f976"},
	} {
		tr, _, _, err = core.ResumeCanonicalTractable(lav, tr, workload.LAVAppend(step.k), core.TractableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pin("tractable resumed", &snap.Entry{Kind: snap.KindTractable, Tractable: tr}, step.want)
	}

	keyed := workload.KeyedLAVSetting()
	ki, kj := workload.KeyedLAVInstance(40)
	ct, err := core.ChaseCanonicalTarget(keyed, ki, kj, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pin("generic fresh", &snap.Entry{Kind: snap.KindGeneric, Generic: ct}, "cee90b7b1f458a7eef7c1edef451d294153c7e427f31e80a408ad9c159fbb2ae")
	// A draft note for p0 makes the resumed Σt chase merge again.
	delta := workload.KeyedLAVAppend(40, 4)
	delta.Add("Rec", rel.Const("p0"), rel.Const("g0"), rel.Const("late-note"))
	ct, _, _, err = core.ResumeCanonicalTarget(keyed, ct, delta, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pin("generic resumed", &snap.Entry{Kind: snap.KindGeneric, Generic: ct}, "e13411f28b7da98048bb3bd6ecb2208fe3558acdf6ad3dea7b605d94341a45e9")
}
