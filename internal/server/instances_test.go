package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/rel"
	"repro/internal/snap"
	"repro/pde"
	"repro/pde/client"
)

// arityCompatible reports whether every relation the two instances
// share has one arity in both: the precondition of uniting them.
func arityCompatible(a, b *pde.Instance) bool {
	for _, name := range b.RelationNames() {
		if r := a.Relation(name); r != nil && r.Arity() != b.Relation(name).Arity() {
			return false
		}
	}
	return true
}

// FuzzAppendText checks the merged canonical text of an append against
// formatting the union from scratch: Append's Text and ID must equal
// FormatInstance and instanceID of base ∪ batch, and its delta must
// hold exactly the batch facts the base lacks.
func FuzzAppendText(f *testing.F) {
	for _, seed := range [][2]string{
		{"E(a,b). E(b,c).", "E(c,d). E(a,a)."},
		{"", "E(a,b). E(a,b). E(b,a)."},                         // empty base, duplicates inside the batch
		{"E(a,b). E(b,c).", "E(b,c). E(a,b)."},                  // every batch fact already in the base
		{"E(a,b). E(b,c).", "E(b,c). E(c,a). E(c,a)."},          // duplicates against the base and inside the batch
		{"P('a b', c). P(zz, y).", "P('a b', 'c d'). P(a, b)."}, // quoted constants sort by their quote
		{"N(1x, 42). N(9, a).", "N(10, b). N(1x, 43). N(0a, c)."},
		{"Q(_3, a). Q('_3', b).", "Q('_3', a). Q(_3, b). Q(_10, c)."}, // nulls beside null-like constants
		{"X('exists', a).", "X(exists, b). X('', a). X(a, '')."},
		{"A(a). B(a, b). C(a, b, c).", "B(b, a). AA(z). C(c, b, a). A(b)."},
		{"R(x).", "S(x). R(x). T(x)."},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, baseSrc, batchSrc string) {
		baseInst, err := pde.ParseInstance(baseSrc)
		if err != nil {
			return
		}
		batch, err := pde.ParseInstance(batchSrc)
		if err != nil || !arityCompatible(baseInst, batch) {
			return
		}
		r := NewInstanceRegistry()
		base, _, err := r.Register(baseSrc)
		if err != nil {
			t.Fatalf("registering a parsed instance: %v", err)
		}
		union := rel.Union(base.Inst, batch)
		want := pde.FormatInstance(union)

		child, delta, _ := r.Append(base, batch)
		if child.Text != want {
			t.Fatalf("merged text differs from FormatInstance of the union:\nmerged:\n%s\nwant:\n%s", child.Text, want)
		}
		if child.ID != instanceID(want) {
			t.Fatalf("child ID %s, want %s", child.ID, instanceID(want))
		}
		if child.Facts != union.NumFacts() || !child.Inst.Equal(union) {
			t.Fatalf("child has %d facts, union %d", child.Facts, union.NumFacts())
		}
		wantDelta := 0
		for _, f := range batch.Facts() {
			if !base.Inst.Contains(f) {
				wantDelta++
				if !delta.Contains(f) {
					t.Fatalf("delta misses the new fact %s", f)
				}
			}
		}
		if delta.NumFacts() != wantDelta {
			t.Fatalf("delta has %d facts, want %d", delta.NumFacts(), wantDelta)
		}
		if wantDelta == 0 && child != base {
			t.Fatal("an append adding nothing did not return the base")
		}
	})
}

// checkSnapTexts requires that every cache entry of s saves the
// canonical texts of its own instances, and returns how many entries
// it checked.
func checkSnapTexts(t *testing.T, s *Server) int {
	t.Helper()
	n := 0
	for _, e := range s.cache.entries() {
		se := snapEntry(e)
		if se == nil {
			t.Fatalf("entry %q is not serializable", e.key)
		}
		if want := pde.FormatInstance(e.src.Inst); se.SourceText != want {
			t.Fatalf("entry %q saves source text\n%s\nwant\n%s", e.key, se.SourceText, want)
		}
		if want := pde.FormatInstance(e.tgt.Inst); se.TargetText != want {
			t.Fatalf("entry %q saves target text\n%s\nwant\n%s", e.key, se.TargetText, want)
		}
		if se.SourceID != instanceID(se.SourceText) || se.TargetID != instanceID(se.TargetText) {
			t.Fatalf("entry %q: saved IDs do not hash the saved texts", e.key)
		}
		n++
	}
	return n
}

// TestSnapEntryTextsAreCanonical pins the saved instance texts to
// FormatInstance for entries of both kinds (keyedSetting caches the
// generic artifact) and every origin: a by-ID
// solve, an inline solve, an append migration, a snapshot restore and
// a warm transfer. The instances use quoted, digit-led and null-like
// constants and unsorted, duplicated input, so a text that skipped
// canonicalization would show.
func TestSnapEntryTextsAreCanonical(t *testing.T) {
	ctx := context.Background()
	register := func(c *client.Client) []string {
		t.Helper()
		var ids []string
		for _, text := range []string{example1, keyedSetting} {
			reg, err := c.Register(ctx, text)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, reg.ID)
		}
		return ids
	}
	store, err := snap.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, c := newTestServer(t, Config{Snapshots: store})
	settings := register(c)

	byID, err := c.RegisterInstance(ctx, "E(c, '_3'). E('a b', c). E(1x, c). E('a b', c).")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range settings {
		if _, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: id, SourceID: byID.ID}); err != nil {
			t.Fatal(err)
		}
	}
	if n := checkSnapTexts(t, srv); n != 2 {
		t.Fatalf("by-ID solves: %d entries, want 2", n)
	}

	inline := client.SolveRequest{SettingID: settings[0], Source: "E(z, 'exists'). E('exists', z). E(z, z).", Target: "H(z, z). H(z, '')."}
	if _, err := c.ExistsSolution(ctx, inline); err != nil {
		t.Fatal(err)
	}
	if n := checkSnapTexts(t, srv); n != 3 {
		t.Fatalf("after an inline solve: %d entries, want 3", n)
	}

	app, err := c.AppendInstance(ctx, byID.ID, client.AppendRequest{Facts: "E(_3, 'a b'). E(c, '_3'). E(0z, 1x)."})
	if err != nil {
		t.Fatal(err)
	}
	if app.Migrated != 2 {
		t.Fatalf("append migrated %d entries, want 2", app.Migrated)
	}
	if n := checkSnapTexts(t, srv); n != 5 {
		t.Fatalf("after an append: %d entries, want 5", n)
	}
	srv.Close() // flush the write-behind queue

	restored, rc := newTestServer(t, Config{Snapshots: store})
	defer restored.Close()
	register(rc)
	if loaded, failed := restored.LoadSnapshots(); loaded != 5 || failed != 0 {
		t.Fatalf("restore loaded %d, failed %d; want 5, 0", loaded, failed)
	}
	if n := checkSnapTexts(t, restored); n != 5 {
		t.Fatalf("after a restore: %d entries, want 5", n)
	}

	warm, wc := newTestServer(t, Config{})
	register(wc)
	if pulled, skipped, err := warm.WarmFrom(ctx, rc.Base()); err != nil || pulled != 5 || skipped != 0 {
		t.Fatalf("warm transfer pulled %d, skipped %d, err %v; want 5, 0", pulled, skipped, err)
	}
	if n := checkSnapTexts(t, warm); n != 5 {
		t.Fatalf("after a warm transfer: %d entries, want 5", n)
	}
}

// TestInstanceIDPinned: streaming the text through the hash in chunks
// gives the ID of hashing it whole, for texts shorter than, as long as
// and longer than a chunk, and spanning several.
func TestInstanceIDPinned(t *testing.T) {
	for _, n := range []int{0, 1, idChunk - 1, idChunk, idChunk + 1, 3*idChunk + 7} {
		text := strings.Repeat("P(a,b).\n", n/8+1)[:n]
		sum := sha256.Sum256([]byte(text))
		if got, want := instanceID(text), "sha256:"+hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("instanceID of %d bytes = %s, want %s", n, got, want)
		}
	}
}
