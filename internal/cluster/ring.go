// Package cluster implements the consistent-hash ring that shards the
// pdxd chase cache across a static fleet of daemons. Membership is a
// fixed peer list known at startup; liveness toggles members in and out
// of the placement ring without changing the list. Placement is fully
// deterministic — every point on the ring is a sha256 of a member URL
// and a virtual-node index, and keys hash with sha256 too — so every
// shard that sees the same live set computes the same owner for every
// key, with no coordination and no randomness.
//
// The unit of placement is the chase-cache identity already used by
// internal/server: the (setting-hash, source-instance-hash,
// target-instance-hash) triple, combined by Key. Both cache kinds
// (tractable and generic) of a pair land on the same owner, so one
// shard holds everything there is to know about a pair.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// DefaultVNodes is the virtual-node count per member when a Ring is
// built with vnodes <= 0. 64 points per member keeps the expected
// relocation on a membership change within a few percent of the ideal
// 1/N while the full 3-shard ring still sorts in microseconds.
const DefaultVNodes = 64

// Key combines a chase-cache identity into the ring placement key. The
// IDs are content hashes ("sha256:<hex>"), so '\x00' never occurs
// inside a component and the combination is injective.
func Key(settingID, srcID, tgtID string) string {
	return settingID + "\x00" + srcID + "\x00" + tgtID
}

// Member is one shard in the ring's static membership.
type Member struct {
	// URL is the member's base URL (its identity on the ring).
	URL string
	// Alive reports whether the member currently takes placements.
	Alive bool
	// Self marks the member the local daemon advertises as itself.
	Self bool
}

// point is one virtual node: a position on the hash circle owned by a
// member.
type point struct {
	hash uint64
	url  string
}

// Ring is the consistent-hash ring. It is safe for concurrent use; the
// placement points are rebuilt under the lock whenever liveness
// changes, so Owner is a read-locked binary search.
type Ring struct {
	self   string
	vnodes int

	mu      sync.RWMutex
	urls    []string // static membership, sorted, deduplicated
	alive   map[string]bool
	points  []point // live members' virtual nodes, sorted by hash
	version uint64  // bumped on every placement change
}

// New builds a ring for the static membership peers ∪ {self}. self
// starts alive; every other peer starts dead and joins the placement
// when SetAlive marks it up (the health monitor's first probe round),
// so a shard booting alone never places keys on peers it has not seen
// respond. vnodes <= 0 means DefaultVNodes.
func New(self string, peers []string, vnodes int) (*Ring, error) {
	if self == "" {
		return nil, fmt.Errorf("cluster: self URL is empty")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{self: true}
	urls := []string{self}
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer URL in list")
		}
		if !seen[p] {
			seen[p] = true
			urls = append(urls, p)
		}
	}
	sort.Strings(urls)
	r := &Ring{
		self:   self,
		vnodes: vnodes,
		urls:   urls,
		alive:  map[string]bool{self: true},
	}
	r.rebuildLocked()
	return r, nil
}

// Self returns the local member's URL.
func (r *Ring) Self() string { return r.self }

// Size returns the static membership size (alive or not).
func (r *Ring) Size() int { return len(r.urls) }

// Version returns the placement version, bumped on every liveness
// change. Callers cache it to detect ring changes cheaply.
func (r *Ring) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// Alive reports whether a member currently takes placements. Unknown
// URLs are never alive.
func (r *Ring) Alive(url string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alive[url]
}

// AliveCount returns the number of live members (self included).
func (r *Ring) AliveCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, url := range r.urls {
		if r.alive[url] {
			n++
		}
	}
	return n
}

// SetAlive marks a member up or down, reporting whether the placement
// changed. The local member cannot be marked dead (a shard always
// places its own keys), and URLs outside the static membership are
// ignored.
func (r *Ring) SetAlive(url string, alive bool) (changed bool) {
	if url == r.self && !alive {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	member := false
	for _, u := range r.urls {
		if u == url {
			member = true
			break
		}
	}
	if !member || r.alive[url] == alive {
		return false
	}
	r.alive[url] = alive
	r.rebuildLocked()
	return true
}

// Members returns the static membership with liveness, sorted by URL.
func (r *Ring) Members() []Member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Member, 0, len(r.urls))
	for _, url := range r.urls {
		out = append(out, Member{URL: url, Alive: r.alive[url], Self: url == r.self})
	}
	return out
}

// Owner returns the live member that owns key: the first virtual node
// clockwise from the key's hash. With a single live member (the boot
// state) every key is owned by self.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	// points is never empty: self is always alive.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].url
}

// rebuildLocked regenerates the placement points from the live set.
// Ties on hash values (astronomically unlikely with sha256, but the
// sort must still be total) break by URL, keeping the order — and
// therefore ownership — identical on every shard.
func (r *Ring) rebuildLocked() {
	r.points = r.points[:0]
	for _, url := range r.urls {
		if !r.alive[url] {
			continue
		}
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, point{hash: hash64(url + "#" + strconv.Itoa(v)), url: url})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].url < r.points[j].url
	})
	r.version++
}

// hash64 maps a string onto the ring circle: the first eight bytes of
// its sha256, big-endian. sha256 keeps placement identical across
// processes, architectures, and Go versions — the property the
// cross-shard ownership agreement rests on.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
