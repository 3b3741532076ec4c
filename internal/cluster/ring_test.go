package cluster

import (
	"fmt"
	"testing"
)

// testPeers builds a fleet of n shard URLs.
func testPeers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8642", i+1)
	}
	return out
}

// testKeys builds n synthetic cache-identity keys.
func testKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = Key(
			fmt.Sprintf("sha256:setting%d", i%7),
			fmt.Sprintf("sha256:src%d", i),
			"sha256:empty")
	}
	return out
}

// TestPlacementDeterministic: two rings built from the same membership
// — handed the peer list in different orders, from different "self"
// members — agree on the owner of every key. This is the property every
// shard's routing decision rests on: no coordination, same answer.
func TestPlacementDeterministic(t *testing.T) {
	peers := testPeers(5)
	a, err := New(peers[0], peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]string, len(peers))
	for i, p := range peers {
		reversed[len(peers)-1-i] = p
	}
	b, err := New(peers[3], reversed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Ring{a, b} {
		for _, p := range peers {
			r.SetAlive(p, true)
		}
	}
	for _, k := range testKeys(2000) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("rings disagree on %q: %q vs %q", k, ao, bo)
		}
	}
}

// TestPlacementGolden pins concrete owners, so a change to the hash
// function or point layout — which would silently split ownership
// between old and new binaries during a rolling restart — fails loudly.
// The values are what sha256-based placement produces; regenerate them
// deliberately if the placement scheme ever changes on purpose (that is
// a wire-format-level event for a mixed-version fleet).
func TestPlacementGolden(t *testing.T) {
	peers := testPeers(3)
	r, err := New(peers[0], peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		r.SetAlive(p, true)
	}
	got := make(map[string]int)
	for _, k := range testKeys(999) {
		got[r.Owner(k)]++
	}
	want := map[string]int{
		"http://10.0.0.1:8642": 335,
		"http://10.0.0.2:8642": 329,
		"http://10.0.0.3:8642": 335,
	}
	for url, n := range want {
		if got[url] != n {
			t.Fatalf("owner distribution changed: got %v, want %v", got, want)
		}
	}
}

// TestSingleOwner: every key has exactly one owner, the owner is a live
// member, and dead members never own anything.
func TestSingleOwner(t *testing.T) {
	peers := testPeers(4)
	r, err := New(peers[0], peers, 32)
	if err != nil {
		t.Fatal(err)
	}
	r.SetAlive(peers[1], true)
	r.SetAlive(peers[2], true)
	// peers[3] stays dead.
	live := map[string]bool{peers[0]: true, peers[1]: true, peers[2]: true}
	for _, k := range testKeys(1000) {
		o := r.Owner(k)
		if !live[o] {
			t.Fatalf("key %q owned by non-live member %q", k, o)
		}
		if again := r.Owner(k); again != o {
			t.Fatalf("owner of %q not stable: %q then %q", k, o, again)
		}
	}
}

// TestRemovalRelocatesOnlyOwnedKeys is the consistent-hashing contract:
// marking one of N members dead relocates exactly the keys that member
// owned — every other key keeps its owner — and the relocated fraction
// is about 1/N (bounded well away from the 100% a mod-N scheme pays).
func TestRemovalRelocatesOnlyOwnedKeys(t *testing.T) {
	const n = 4
	peers := testPeers(n)
	keys := testKeys(4000)
	for _, victim := range []int{1, 2, 3} { // 0 is self, which cannot die
		r, err := New(peers[0], peers, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range peers {
			r.SetAlive(p, true)
		}
		before := make(map[string]string, len(keys))
		for _, k := range keys {
			before[k] = r.Owner(k)
		}
		if !r.SetAlive(peers[victim], false) {
			t.Fatalf("marking %q dead changed nothing", peers[victim])
		}
		moved := 0
		for _, k := range keys {
			after := r.Owner(k)
			if after == before[k] {
				continue
			}
			if before[k] != peers[victim] {
				t.Fatalf("key %q moved %q -> %q although %q died", k, before[k], after, peers[victim])
			}
			if after == peers[victim] {
				t.Fatalf("key %q relocated onto the dead member", k)
			}
			moved++
		}
		owned := 0
		for _, o := range before {
			if o == peers[victim] {
				owned++
			}
		}
		if moved != owned {
			t.Fatalf("victim %d: %d keys moved but victim owned %d", victim, moved, owned)
		}
		// The ideal share is 1/4; with 64 vnodes the realized share
		// stays within a generous band around it.
		frac := float64(moved) / float64(len(keys))
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("victim %d: relocated fraction %.3f outside [0.10, 0.45] (ideal %.3f)", victim, frac, 1.0/n)
		}
		// Revival restores the exact original placement.
		if !r.SetAlive(peers[victim], true) {
			t.Fatalf("reviving %q changed nothing", peers[victim])
		}
		for _, k := range keys {
			if r.Owner(k) != before[k] {
				t.Fatalf("revival did not restore owner of %q", k)
			}
		}
	}
}

// TestRingBasics covers the membership and liveness edges: self always
// alive, duplicate peers deduplicated, unknown URLs ignored, versions
// bumped only on real changes.
func TestRingBasics(t *testing.T) {
	peers := testPeers(3)
	r, err := New(peers[0], append([]string{peers[0]}, peers...), 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 3 {
		t.Fatalf("size %d after dedupe, want 3", r.Size())
	}
	if !r.Alive(peers[0]) || r.AliveCount() != 1 {
		t.Fatalf("self not alive at boot: %+v", r.Members())
	}
	if r.SetAlive(peers[0], false) {
		t.Fatal("self was marked dead")
	}
	if r.SetAlive("http://unknown:1", true) {
		t.Fatal("unknown URL joined the ring")
	}
	v := r.Version()
	if !r.SetAlive(peers[1], true) {
		t.Fatal("liveness change not reported")
	}
	if r.SetAlive(peers[1], true) {
		t.Fatal("no-op liveness change reported")
	}
	if r.Version() != v+1 {
		t.Fatalf("version %d after one change from %d", r.Version(), v)
	}
	members := r.Members()
	if len(members) != 3 || !members[0].Self || !members[0].Alive || !members[1].Alive || members[2].Alive {
		t.Fatalf("unexpected members: %+v", members)
	}
	if _, err := New("", peers, 8); err == nil {
		t.Fatal("empty self accepted")
	}
	if _, err := New(peers[0], []string{""}, 8); err == nil {
		t.Fatal("empty peer accepted")
	}
	key := Key("sha256:s", "sha256:i", "sha256:j")
	if o := r.Owner(key); !r.Alive(o) {
		t.Fatalf("owner %q not alive", o)
	}
}
