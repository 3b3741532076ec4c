package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/snap"
	"repro/pde"
	"repro/pde/client"
)

// solveByID registers the source facts as an instance and solves the
// example1 setting against them, returning the response.
func solveByID(t *testing.T, c *client.Client, settingID, facts string) client.SolveResponse {
	t.Helper()
	ctx := context.Background()
	inst, err := c.RegisterInstance(ctx, facts)
	if err != nil {
		t.Fatalf("register instance: %v", err)
	}
	res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: settingID, SourceID: inst.ID})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return res
}

func TestSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	facts := "E(a,b). E(b,c). E(c,d)."

	store, err := snap.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv, c := newTestServer(t, Config{Snapshots: store})
	reg, err := c.Register(context.Background(), example1)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if res := solveByID(t, c, reg.ID, facts); res.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}
	if res := solveByID(t, c, reg.ID, facts); !res.CacheHit {
		t.Fatal("second solve missed the in-memory cache")
	}
	srv.Close() // flush the write-behind queue
	keys, err := store.List()
	if err != nil || len(keys) == 0 {
		t.Fatalf("no snapshots on disk after close: %v, %v", keys, err)
	}

	// A fresh daemon over the same directory, with the setting
	// preloaded, serves the first solve warm.
	store2, err := snap.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	srv2, c2 := newTestServer(t, Config{Snapshots: store2})
	defer srv2.Close()
	if _, err := c2.Register(context.Background(), example1); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	loaded, failed := srv2.LoadSnapshots()
	if loaded == 0 || failed != 0 {
		t.Fatalf("warm start loaded %d, failed %d", loaded, failed)
	}
	if res := solveByID(t, c2, reg.ID, facts); !res.CacheHit {
		t.Fatal("first solve after warm restart missed the cache")
	}

	// The warm start re-registered the snapshot's instances, so
	// solve-by-ID addresses them without a fresh upload.
	insts, err := c2.Instances(context.Background())
	if err != nil || len(insts.Instances) == 0 {
		t.Fatalf("instances after warm start: %+v, %v", insts, err)
	}
}

// TestEvictedInstanceStaysEvictedAcrossRestart: evicting an instance
// removes the snapshot files of its cache entries, and of entries
// whose saves were still queued, so a warm restart over the same
// directory loads only what is still registered and does not bring
// the evicted instance back.
func TestEvictedInstanceStaysEvictedAcrossRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store, err := snap.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv, c := newTestServer(t, Config{Snapshots: store})
	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	base, err := c.RegisterInstance(ctx, "E(a,b). E(b,c).")
	if err != nil {
		t.Fatalf("register instance: %v", err)
	}
	if _, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, SourceID: base.ID}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	child, err := c.AppendInstance(ctx, base.ID, client.AppendRequest{Facts: "E(c,d)."})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := c.EvictInstance(ctx, child.ID); err != nil {
		t.Fatalf("evict: %v", err)
	}
	srv.Close()
	keys, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("%d snapshot files after evicting the appended instance, want the base's 1", len(keys))
	}

	store2, err := snap.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	srv2, c2 := newTestServer(t, Config{Snapshots: store2})
	defer srv2.Close()
	if _, err := c2.Register(ctx, example1); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if loaded, failed := srv2.LoadSnapshots(); loaded != 1 || failed != 0 {
		t.Fatalf("warm start loaded %d, failed %d; want 1, 0", loaded, failed)
	}
	insts, err := c2.Instances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, si := range insts.Instances {
		if si.ID == child.ID {
			t.Fatalf("warm restart re-registered the evicted instance %s", child.ID)
		}
	}
	if len(insts.Instances) != 1 || insts.Instances[0].ID != base.ID {
		t.Fatalf("instances after warm start: %+v, want only the base %s", insts.Instances, base.ID)
	}
}

// TestLRUEvictedInstanceStaysEvictedAcrossRestart: evicting an
// instance removes the snapshot files naming it even when LRU eviction
// has already dropped their cache entries, so a warm restart does not
// bring the instance back.
func TestLRUEvictedInstanceStaysEvictedAcrossRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store, err := snap.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv, c := newTestServer(t, Config{Snapshots: store, CacheMaxEntries: 1})
	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	a, err := c.RegisterInstance(ctx, "E(a,b). E(b,c).")
	if err != nil {
		t.Fatalf("register instance a: %v", err)
	}
	b, err := c.RegisterInstance(ctx, "E(c,d).")
	if err != nil {
		t.Fatalf("register instance b: %v", err)
	}
	for _, id := range []string{a.ID, b.ID} { // b's entry pushes a's out
		if _, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, SourceID: id}); err != nil {
			t.Fatalf("solve: %v", err)
		}
	}
	if err := c.EvictInstance(ctx, a.ID); err != nil {
		t.Fatalf("evict: %v", err)
	}
	srv.Close()

	store2, err := snap.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	srv2, c2 := newTestServer(t, Config{Snapshots: store2})
	defer srv2.Close()
	if _, err := c2.Register(ctx, example1); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if loaded, failed := srv2.LoadSnapshots(); loaded != 1 || failed != 0 {
		t.Fatalf("warm start loaded %d, failed %d; want 1, 0", loaded, failed)
	}
	insts, err := c2.Instances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, si := range insts.Instances {
		ids = append(ids, si.ID)
	}
	if slices.Contains(ids, a.ID) || !slices.Contains(ids, b.ID) {
		t.Fatalf("instances after warm start: %v; want b %s and not the evicted a %s", ids, b.ID, a.ID)
	}
}

func TestSnapshotLoadRejectsUnregisteredSettingAndTamper(t *testing.T) {
	dir := t.TempDir()
	store, err := snap.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv, c := newTestServer(t, Config{Snapshots: store})
	reg, err := c.Register(context.Background(), example1)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	solveByID(t, c, reg.ID, "E(a,b). E(b,c).")
	srv.Close()
	keys, _ := store.List()
	if len(keys) == 0 {
		t.Fatal("no snapshots written")
	}

	// Without the setting registered, every snapshot is rejected and the
	// files stay in place for a later, properly preloaded restart.
	store2, _ := snap.Open(dir)
	srv2, _ := newTestServer(t, Config{Snapshots: store2})
	defer srv2.Close()
	loaded, failed := srv2.LoadSnapshots()
	if loaded != 0 || failed == 0 {
		t.Fatalf("unregistered setting: loaded %d, failed %d", loaded, failed)
	}
	if after, _ := store2.List(); len(after) != len(keys) {
		t.Fatalf("rejected snapshots were deleted: %d of %d left", len(after), len(keys))
	}

	// A flipped byte fails the checksum and the snapshot is skipped.
	path := filepath.Join(dir, keys[0]+".pdxsnap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store3, _ := snap.Open(dir)
	srv3, c3 := newTestServer(t, Config{Snapshots: store3})
	defer srv3.Close()
	if _, err := c3.Register(context.Background(), example1); err != nil {
		t.Fatal(err)
	}
	loaded, failed = srv3.LoadSnapshots()
	if failed == 0 {
		t.Fatalf("tampered snapshot was accepted (loaded %d, failed %d)", loaded, failed)
	}
}

func TestWarmTransferFromPeer(t *testing.T) {
	ctx := context.Background()
	facts := "E(a,b). E(b,c)."

	// Peer: a plain daemon (no snapshot dir) with a warm cache.
	_, peer := newTestServer(t, Config{})
	reg, err := peer.Register(ctx, example1)
	if err != nil {
		t.Fatalf("register on peer: %v", err)
	}
	solveByID(t, peer, reg.ID, facts)
	keys, err := peer.CacheKeys(ctx)
	if err != nil || len(keys.Keys) == 0 {
		t.Fatalf("peer cache keys: %+v, %v", keys, err)
	}
	if _, err := peer.CacheEntry(ctx, keys.Keys[0].Key); err != nil {
		t.Fatalf("peer cache entry: %v", err)
	}
	if _, err := peer.CacheEntry(ctx, strings.Repeat("0", 64)); err == nil {
		t.Fatal("fetch of an absent key succeeded")
	}

	// Cold daemon pulls the peer's cache; its first solve is then warm.
	cold, cc := newTestServer(t, Config{})
	if _, err := cc.Register(ctx, example1); err != nil {
		t.Fatalf("register on cold: %v", err)
	}
	pulled, skipped, err := cold.WarmFrom(ctx, peer.Base())
	if err != nil || pulled == 0 {
		t.Fatalf("warm transfer: pulled %d, skipped %d, %v", pulled, skipped, err)
	}
	if res := solveByID(t, cc, reg.ID, facts); !res.CacheHit {
		t.Fatal("first solve after warm transfer missed the cache")
	}
	if got := cold.met.warmTransfers.Load(); got == 0 {
		t.Fatal("warm transfer counter did not move")
	}

	// A second pull skips everything already present.
	pulled, skipped, err = cold.WarmFrom(ctx, peer.Base())
	if err != nil || pulled != 0 || skipped == 0 {
		t.Fatalf("second warm transfer: pulled %d, skipped %d, %v", pulled, skipped, err)
	}

	// Warming from an unreachable peer fails the listing, not the
	// daemon.
	if _, _, err := cold.WarmFrom(ctx, "http://127.0.0.1:1"); err == nil {
		t.Fatal("warm transfer from unreachable peer succeeded")
	}
}

// TestInstanceBytesIgnoresTombstones pins the cache byte accounting to
// live tuples: egd merges tombstone tuples in place, and a tombstoned
// slot must not keep inflating pdxd_chase_cache_bytes.
func TestInstanceBytesIgnoresTombstones(t *testing.T) {
	inst := rel.NewInstance()
	inst.AddTuple("T", rel.Tuple{rel.Const("a"), rel.Null(1)})
	inst.AddTuple("T", rel.Tuple{rel.Const("a"), rel.Const("b")})
	inst.AddTuple("T", rel.Tuple{rel.Const("c"), rel.Const("d")})
	// Merging the null into b rewrites tuple 0 into a duplicate of tuple
	// 1, which tombstones one slot in place.
	inst.MergeValue(rel.Null(1), rel.Const("b"))
	r := inst.Relation("T")
	if r.Len() != 3 || r.LiveLen() != 2 {
		t.Fatalf("merge did not tombstone: len %d live %d", r.Len(), r.LiveLen())
	}
	got := instanceBytes(inst)
	want := instanceBytes(inst.Compact())
	if got != want {
		t.Fatalf("tombstones inflate accounting: %d with tombstones, %d compacted", got, want)
	}
	if got <= 0 {
		t.Fatalf("accounting lost the live tuples: %d", got)
	}
	if instanceBytes(nil) != 0 {
		t.Fatal("nil instance must account to zero")
	}
}

// TestInlineSolveWithSnapshotsRace: a cache entry keeps a solve's
// inline instances, and the write-behind snapshot worker formats them
// while the request goes on to clone them in the image search. Inline
// instances are frozen, so neither side writes them; under -race a
// write would show here.
func TestInlineSolveWithSnapshotsRace(t *testing.T) {
	store, err := snap.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, c := newTestServer(t, Config{Snapshots: store})
	defer srv.Close()
	ctx := context.Background()
	reg, err := c.Register(ctx, keyedSetting)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 20; n++ {
		var src strings.Builder
		for k := 0; k < 30; k++ {
			fmt.Fprintf(&src, "E(a%d,b%d). ", k, (k+n)%30)
		}
		res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, Source: src.String()})
		if err != nil {
			t.Fatalf("solve %d: %v", n, err)
		}
		if !res.Exists {
			t.Fatalf("solve %d: no solution for a functional E", n)
		}
	}
}

// forgedSnapshot encodes a checksum-valid tractable snapshot of the
// example1 setting registered as settingID whose identity and instance
// texts name the source claimText, but whose trace was chased from the
// source instance from. It returns the snapshot key and bytes.
func forgedSnapshot(t testing.TB, s *Server, settingID, claimText string, from *pde.Instance) (string, []byte) {
	t.Helper()
	claim, err := compileInstance(claimText)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.ChaseCanonicalTractable(s.reg.Get(settingID).Setting, from, pde.NewInstance(), core.TractableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode(&snap.Entry{
		SettingID:  settingID,
		SourceID:   claim.ID,
		TargetID:   emptyInstance.ID,
		Kind:       snap.KindTractable,
		SourceText: claim.Text,
		TargetText: emptyInstance.Text,
		Tractable:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return snap.Key(settingID, claim.ID, emptyInstance.ID, snap.KindTractable), data
}

// mustParseInstance parses instance text or fails the test.
func mustParseInstance(t testing.TB, text string) *pde.Instance {
	t.Helper()
	inst, err := pde.ParseInstance(text)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// quotedPath is a two-edge path with quoted constants.
// oneEdgeAsQuotedPath returns a single edge whose first constant holds
// quotes and a newline, so that it formats to exactly quotedPath's
// canonical text: no parsed text yields it, but a decoded one can.
const quotedPath = "E('a x','b x'). E('b x','c x')."

func oneEdgeAsQuotedPath(t testing.TB) *pde.Instance {
	t.Helper()
	inst := pde.NewInstance()
	inst.Add("E", pde.Const("a x', 'b x').\nE('b x"), pde.Const("c x"))
	if q, err := compileInstance(quotedPath); err != nil || pde.FormatInstance(inst) != q.Text {
		t.Fatalf("one edge formats to %q, not to the quoted path's text (%v)", pde.FormatInstance(inst), err)
	}
	return inst
}

// TestSnapshotLoadRejectsForeignTrace: a snapshot passes every check on
// its identity and texts, but its trace was chased from other facts.
// A two-edge path has no solution under example1 (H(a,c) needs E(a,c));
// a single edge has one, and so does the path ∪ an undeclared fact.
// Installing such a trace under the path's ID would answer the path's
// solve from facts it does not hold. The last case is one edge that
// formats to exactly the quoted path's text. The load, and a push of
// the same bytes, must be refused and counted; the path's solve is then
// chased fresh and answers false.
func TestSnapshotLoadRejectsForeignTrace(t *testing.T) {
	const path = "E(a,b). E(b,c)."
	ctx := context.Background()
	for _, tc := range []struct {
		path string
		from *pde.Instance
	}{
		{path, mustParseInstance(t, "E(a,b).")},
		{path, mustParseInstance(t, path+" Z(q).")},
		{quotedPath, oneEdgeAsQuotedPath(t)},
	} {
		path, from := tc.path, pde.FormatInstance(tc.from)
		dir := t.TempDir()
		store, err := snap.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, c := newTestServer(t, Config{Snapshots: store})
		defer srv.Close()
		reg, err := c.Register(ctx, example1)
		if err != nil {
			t.Fatal(err)
		}
		key, data := forgedSnapshot(t, srv, reg.ID, path, tc.from)
		if err := store.Save(key, data); err != nil {
			t.Fatal(err)
		}
		if loaded, failed := srv.LoadSnapshots(); loaded != 0 || failed != 1 {
			t.Fatalf("trace chased from %q: loaded %d, failed %d; want the load refused", from, loaded, failed)
		}
		err = c.PushCacheEntry(ctx, key, data)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
			t.Fatalf("trace chased from %q: push answered %v, want 422", from, err)
		}
		if got := srv.met.snapshotLoadErrors.Load(); got != 2 {
			t.Fatalf("trace chased from %q: %d load errors counted, want 2", from, got)
		}
		if res := solveByID(t, c, reg.ID, path); res.Exists || res.CacheHit {
			t.Fatalf("trace chased from %q: path solve = %+v, want a fresh chase answering false", from, res)
		}
	}
}

// TestRestoredEntrySharesRegisteredInstance: a restored entry registers
// its source instance from its own Σst start, so the registered
// instance and the trace share relations exactly as they do for an
// entry chased fresh from that instance; there is no second copy of I.
func TestRestoredEntrySharesRegisteredInstance(t *testing.T) {
	dir := t.TempDir()
	facts := "E(a,b). E(b,c). E(c,d)."
	ctx := context.Background()
	store, err := snap.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, c := newTestServer(t, Config{Snapshots: store})
	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatal(err)
	}
	solveByID(t, c, reg.ID, facts)
	srv.Close()

	store2, err := snap.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, c2 := newTestServer(t, Config{Snapshots: store2})
	defer srv2.Close()
	if _, err := c2.Register(ctx, example1); err != nil {
		t.Fatal(err)
	}
	if loaded, failed := srv2.LoadSnapshots(); loaded != 1 || failed != 0 {
		t.Fatalf("warm start loaded %d, failed %d", loaded, failed)
	}
	src, err := compileInstance(facts)
	if err != nil {
		t.Fatal(err)
	}
	entries := srv2.cache.entries()
	if len(entries) != 1 {
		t.Fatalf("%d cache entries after the warm start, want 1", len(entries))
	}
	e := entries[0]
	registered := srv2.inst.Get(src.ID)
	if registered == nil || registered.Text != src.Text {
		t.Fatalf("source not registered with its canonical text: %+v", registered)
	}
	start := e.value.(*core.TractableTrace).STResult.Start
	if registered.Inst.Relation("E") != start.Relation("E") {
		t.Fatal("registered source E and the restored Σst start's E are different relations")
	}
	if e.src != registered || e.tgt != emptyInstance {
		t.Fatalf("entry instances are not the registered ones: src %p (registered %p), tgt %p (empty %p)", e.src, registered, e.tgt, emptyInstance)
	}
}

// FuzzCachePush sends arbitrary bodies to PUT /v1/cache/entries/{key}
// on a daemon with example1 registered. Each body is re-sealed with a
// fresh checksum footer, so mutations reach the install checks rather
// than stopping at the decoder's checksum. The key is the body's own
// snapshot key when it decodes (so the fuzzer reaches the validation
// past the key check), or a fixed key when forceKey is set or it does
// not. Every body must be answered 200, 404 or 422, never a panic or a
// 5xx; an installed entry must be served back byte-identically by GET,
// and its instances must be the registered ones, hash to their IDs, and
// have texts that parse back to instances with the same ID and fact
// count.
func FuzzCachePush(f *testing.F) {
	s := New(Config{})
	c, _, err := s.reg.Register(example1)
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	// Seeds: a genuine tractable and generic entry for the path a→b→c,
	// a trace chased from a→b under the path's identity, and one chased
	// from an edge that formats to the quoted path's text.
	path, err := compileInstance("E(a,b). E(b,c).")
	if err != nil {
		f.Fatal(err)
	}
	tr, err := core.ChaseCanonicalTractable(c.Setting, path.Inst, emptyInstance.Inst, core.TractableOptions{})
	if err != nil {
		f.Fatal(err)
	}
	ct, err := core.ChaseCanonicalTarget(c.Setting, path.Inst, emptyInstance.Inst, core.SolveOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range []*snap.Entry{
		{Kind: snap.KindTractable, Tractable: tr},
		{Kind: snap.KindGeneric, Generic: ct},
	} {
		e.SettingID, e.SourceID, e.TargetID = c.ID, path.ID, emptyInstance.ID
		e.SourceText, e.TargetText = path.Text, emptyInstance.Text
		data, err := snap.Encode(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, false)
	}
	_, forged := forgedSnapshot(f, s, c.ID, path.Text, mustParseInstance(f, "E(a,b)."))
	f.Add(forged, false)
	f.Add(forged, true)
	_, forged = forgedSnapshot(f, s, c.ID, quotedPath, oneEdgeAsQuotedPath(f))
	f.Add(forged, false)

	f.Fuzz(func(t *testing.T, body []byte, forceKey bool) {
		if n := len(body) - sha256.Size; n >= 0 {
			body = snap.AppendChecksum(body[:n:n])
		}
		key := strings.Repeat("0", 64)
		if e, err := snap.Decode(body); err == nil && !forceKey {
			key = snap.Key(e.SettingID, e.SourceID, e.TargetID, e.Kind)
		}
		defer s.cache.evictMatching(func(*cacheEntry) bool { return true })
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/cache/entries/"+key, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusNotFound, http.StatusUnprocessableEntity:
			return
		case http.StatusOK:
		default:
			t.Fatalf("push answered %d: %s", rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cache/entries/"+key, nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) {
			t.Fatalf("installed entry served back as %d with %d bytes, pushed %d bytes", rec.Code, rec.Body.Len(), len(body))
		}
		e := s.cache.peek(key)
		if e == nil {
			t.Fatal("installed entry missing from the cache")
		}
		for _, si := range []*StoredInstance{e.src, e.tgt} {
			if instanceID(si.Text) != si.ID || pde.FormatInstance(si.Inst) != si.Text {
				t.Fatalf("instance %s does not hash to its ID", si.ID)
			}
			parsed, err := compileInstance(si.Text)
			if err != nil || parsed.ID != si.ID || parsed.Facts != si.Facts {
				t.Fatalf("instance %s (%d facts) does not parse back from its text: %v", si.ID, si.Facts, err)
			}
			if si.Facts > 0 && s.inst.Get(si.ID) != si {
				t.Fatalf("instance %s is not the registered one", si.ID)
			}
		}
	})
}

// stallHandler is a log handler that holds the goroutine logging msg
// until release is closed, after signalling entered.
type stallHandler struct {
	msg     string
	entered chan struct{}
	release chan struct{}
}

func (h *stallHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *stallHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *stallHandler) WithGroup(string) slog.Handler            { return h }

func (h *stallHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg {
		h.entered <- struct{}{}
		<-h.release
	}
	return nil
}

// stalledSnapshotServer starts a server with a snapshot store whose
// write-behind worker is held inside a job, a removal under a key the
// store refuses, until the returned release runs, so saves stay
// queued. Close runs release first.
func stalledSnapshotServer(t *testing.T) (*Server, *client.Client, *snap.Store, func()) {
	t.Helper()
	store, err := snap.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	h := &stallHandler{msg: "snapshot removal failed", entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, c := newTestServer(t, Config{Snapshots: store, Logger: slog.New(h)})
	release := sync.OnceFunc(func() { close(h.release) })
	t.Cleanup(func() {
		release()
		srv.Close()
	})
	srv.snapMu.Lock()
	srv.snapJobs = append(srv.snapJobs, snapJob{key: "not-a-key"})
	srv.snapCond.Signal()
	srv.snapMu.Unlock()
	<-h.entered
	return srv, c, store, release
}

// droppedSaves reads pdxd_snapshot_saves_dropped_total by reason.
func droppedSaves(t *testing.T, c *client.Client) (queueFull, evicted int64) {
	t.Helper()
	return metricsValue(t, c, `pdxd_snapshot_saves_dropped_total{reason="queue_full"}`),
		metricsValue(t, c, `pdxd_snapshot_saves_dropped_total{reason="evicted"}`)
}

// TestSnapshotSaveDroppedOnFullQueueIsCounted fills the write-behind
// queue behind a stalled worker; the next cache fill's save is dropped
// and counted as queue_full, and nothing is written for it.
func TestSnapshotSaveDroppedOnFullQueueIsCounted(t *testing.T) {
	srv, c, store, release := stalledSnapshotServer(t)
	reg, err := c.Register(context.Background(), example1)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	srv.snapMu.Lock()
	for k := len(srv.snapJobs); k < snapQueueLen; k++ {
		srv.snapJobs = append(srv.snapJobs, snapJob{key: fmt.Sprintf("%064x", k)})
	}
	srv.snapMu.Unlock()
	solveByID(t, c, reg.ID, "E(a,b). E(b,c).")
	if full, evicted := droppedSaves(t, c); full != 1 || evicted != 0 {
		t.Fatalf("dropped saves: queue_full %d, evicted %d; want 1, 0", full, evicted)
	}
	release()
	srv.Close()
	if keys, err := store.List(); err != nil || len(keys) != 0 {
		t.Fatalf("snapshot files %v (err %v), want none", keys, err)
	}
	if n := metricsValue(t, c, "pdxd_snapshot_saves_total"); n != 0 {
		t.Fatalf("%d saves written, want 0", n)
	}
}

// TestSnapshotSaveDroppedOnEvictionIsCounted evicts an instance while
// its entry's save waits behind a stalled worker: the queued save is
// dropped and counted as evicted, and nothing is written for it.
func TestSnapshotSaveDroppedOnEvictionIsCounted(t *testing.T) {
	srv, c, store, release := stalledSnapshotServer(t)
	ctx := context.Background()
	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	inst, err := c.RegisterInstance(ctx, "E(a,b). E(b,c).")
	if err != nil {
		t.Fatalf("register instance: %v", err)
	}
	if _, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, SourceID: inst.ID}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if err := c.EvictInstance(ctx, inst.ID); err != nil {
		t.Fatalf("evict: %v", err)
	}
	if full, evicted := droppedSaves(t, c); full != 0 || evicted != 1 {
		t.Fatalf("dropped saves: queue_full %d, evicted %d; want 0, 1", full, evicted)
	}
	release()
	srv.Close()
	if keys, err := store.List(); err != nil || len(keys) != 0 {
		t.Fatalf("snapshot files %v (err %v), want none", keys, err)
	}
	if n := metricsValue(t, c, "pdxd_snapshot_saves_total"); n != 0 {
		t.Fatalf("%d saves written, want 0", n)
	}
}
