package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rel"
	"repro/internal/snap"
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
