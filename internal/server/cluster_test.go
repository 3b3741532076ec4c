package server

// Multi-shard end-to-end tests: three real pdxd daemons on ephemeral
// ports, clustered over loopback. These drive the full production
// paths — health probes, ring placement, proxying with the forwarded
// header, cluster single-flight, and snapshot handoff after a ring
// change — and assert the fleet-level invariant the cluster exists
// for: one chase per cache identity, no matter which shard the
// requests land on.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/pde"
	"repro/pde/client"
)

// testCluster is a fleet of in-process shards with pre-allocated
// addresses, so every shard knows the full membership before it boots.
type testCluster struct {
	t     *testing.T
	urls  []string
	addrs []string
	srvs  []*Server
	https []*http.Server
	clis  []*client.Client
}

// startTestCluster boots n shards with fast probes and snapshot-less
// config, and waits until every shard sees the whole fleet alive.
func startTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		tc.addrs = append(tc.addrs, ln.Addr().String())
		tc.urls = append(tc.urls, "http://"+ln.Addr().String())
	}
	tc.srvs = make([]*Server, n)
	tc.https = make([]*http.Server, n)
	tc.clis = make([]*client.Client, n)
	for i := range lns {
		tc.bootShard(i, lns[i])
	}
	for i := range tc.srvs {
		tc.waitAlive(i, n)
	}
	return tc
}

// shardConfig is the per-shard server config: fast probes so liveness
// transitions land within test patience, and an admission queue that
// holds a whole request storm. TestClusterEndToEnd lands 12 concurrent
// solves on the owner; the default queue (2×GOMAXPROCS) sheds some of
// them with 429 on a 2-CPU host.
func (tc *testCluster) shardConfig(i int) Config {
	return Config{
		MaxQueue: 64,
		Cluster: &ClusterConfig{
			Self:          tc.urls[i],
			Peers:         tc.urls,
			ProbeInterval: 25 * time.Millisecond,
		},
	}
}

// bootShard starts (or restarts) shard i on the given listener.
func (tc *testCluster) bootShard(i int, ln net.Listener) {
	tc.t.Helper()
	s := New(tc.shardConfig(i))
	h := &http.Server{Handler: s.Handler()}
	go func() { _ = h.Serve(ln) }()
	tc.srvs[i], tc.https[i] = s, h
	tc.clis[i] = client.New(tc.urls[i])
	tc.t.Cleanup(func() { _ = h.Close(); s.Close() })
}

// kill stops shard i hard: no drain, in-flight connections dropped.
func (tc *testCluster) kill(i int) {
	tc.t.Helper()
	_ = tc.https[i].Close()
	tc.srvs[i].Close()
	tc.srvs[i] = nil
}

// restart brings a killed shard back, cold, on its original address.
func (tc *testCluster) restart(i int) {
	tc.t.Helper()
	var ln net.Listener
	waitFor(tc.t, "rebinding "+tc.addrs[i], func() bool {
		var err error
		ln, err = net.Listen("tcp", tc.addrs[i])
		return err == nil
	})
	tc.bootShard(i, ln)
}

// waitAlive blocks until shard i sees want live members.
func (tc *testCluster) waitAlive(i, want int) {
	tc.t.Helper()
	s := tc.srvs[i]
	waitFor(tc.t, fmt.Sprintf("shard %d seeing %d live members", i, want), func() bool {
		return s.cluster.ring.AliveCount() == want
	})
}

// ownerComputes sums pdxd_cluster_owner_computes_total over the
// currently live fleet (a killed shard takes its count to the grave).
func (tc *testCluster) ownerComputes() int64 {
	var n int64
	for _, s := range tc.srvs {
		if s != nil {
			n += s.met.clusterOwnerComputes.Load()
		}
	}
	return n
}

// waitFor polls cond until it holds or the test patience runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClusterEndToEnd(t *testing.T) {
	tc := startTestCluster(t, 3)
	ctx := context.Background()

	// Register on shard 0; the broadcast lands it on every live peer
	// synchronously, so proxied solves never trip over a missing
	// setting on the happy path.
	reg, err := tc.clis[0].Register(ctx, example1)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	for i, s := range tc.srvs {
		if s.reg.Get(reg.ID) == nil {
			t.Fatalf("shard %d missed the registration broadcast", i)
		}
	}

	const src = "E(a,b). E(b,c)."
	srcInst, err := pde.ParseInstance(src)
	if err != nil {
		t.Fatal(err)
	}
	srcID := instanceID(pde.FormatInstance(srcInst))

	// Every shard's status endpoint names the same owner for the
	// identity, and it matches the in-process ring.
	var owner string
	for i, cli := range tc.clis {
		cs, err := cli.ClusterStatus(ctx, reg.ID, srcID, "")
		if err != nil {
			t.Fatalf("cluster status via shard %d: %v", i, err)
		}
		if !cs.Enabled || cs.Self != tc.urls[i] || len(cs.Members) != 3 || cs.Owner == "" {
			t.Fatalf("shard %d status: %+v", i, cs)
		}
		if owner == "" {
			owner = cs.Owner
		} else if cs.Owner != owner {
			t.Fatalf("shards disagree on owner: %q vs %q", owner, cs.Owner)
		}
	}
	if want := tc.srvs[0].cluster.ring.Owner(cluster.Key(reg.ID, srcID, emptyInstance.ID)); owner != want {
		t.Fatalf("status owner %q, ring says %q", owner, want)
	}
	ownerIdx := -1
	for i, u := range tc.urls {
		if u == owner {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %q is not a member", owner)
	}

	// Storm the fleet: 4 identical solves against every shard at once.
	// Exactly one chase runs cluster-wide — non-owners proxy (and the
	// forwarded solves join the owner's single-flight), the owner
	// computes once.
	req := client.SolveRequest{SettingID: reg.ID, Source: src}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i := range tc.clis {
			wg.Add(1)
			go func(cli *client.Client) {
				defer wg.Done()
				res, err := cli.ExistsSolution(ctx, req)
				if err != nil {
					t.Errorf("storm solve: %v", err)
				} else if res.Exists {
					t.Errorf("path instance must have no solution, got %+v", res)
				}
			}(tc.clis[i])
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := tc.ownerComputes(); n != 1 {
		t.Fatalf("fleet ran %d chases for one identity, want exactly 1", n)
	}
	if n := tc.srvs[ownerIdx].met.clusterOwnerComputes.Load(); n != 1 {
		t.Fatalf("owner shard computed %d times, want 1", n)
	}
	var proxied int64
	for i, s := range tc.srvs {
		p := s.met.clusterProxied.Load()
		if i == ownerIdx && p != 0 {
			t.Fatalf("owner proxied %d solves to itself", p)
		}
		proxied += p
	}
	if proxied != 8 { // 4 rounds × 2 non-owner shards
		t.Fatalf("fleet proxied %d solves, want 8", proxied)
	}

	// Kill the owner. Survivors notice, the ring reassigns its keys,
	// and the same request still answers correctly via either survivor
	// — at the price of exactly one recompute (the owner's cache died
	// with it).
	tc.kill(ownerIdx)
	for i, s := range tc.srvs {
		if s == nil {
			continue
		}
		tc.waitAlive(i, 2)
	}
	for i, cli := range tc.clis {
		if i == ownerIdx {
			continue
		}
		res, err := cli.ExistsSolution(ctx, req)
		if err != nil {
			t.Fatalf("post-kill solve via shard %d: %v", i, err)
		}
		if res.Exists {
			t.Fatalf("post-kill solve via shard %d: wrong verdict %+v", i, res)
		}
	}
	// Exactly one recompute across the survivors (the dead owner's
	// count — and cache — died with it).
	if n := tc.ownerComputes(); n != 1 {
		t.Fatalf("survivors ran %d chases after failover, want exactly 1", n)
	}

	// Restart the dead shard cold. Once probes mark it alive the keys
	// it owns flow home: the surviving holder pushes the entry over the
	// snapshot wire format — healing the fresh shard's missing setting
	// via register-and-retry — and drops its local copy.
	tc.restart(ownerIdx)
	for i := range tc.srvs {
		tc.waitAlive(i, 3)
	}
	restarted := tc.srvs[ownerIdx]
	waitFor(t, "handoff landing on the restarted shard", func() bool {
		return len(restarted.cache.entries()) == 1
	})
	if restarted.reg.Get(reg.ID) == nil {
		t.Fatal("handoff did not heal the setting on the restarted shard")
	}
	if n := restarted.met.warmTransfers.Load(); n != 1 {
		t.Fatalf("restarted shard installed %d warm transfers, want 1", n)
	}
	// The holder drops its copy only after the push returns, so the
	// entry may land on the owner a moment before it leaves the holder.
	waitFor(t, "survivors dropping the handed-off entry", func() bool {
		for i, s := range tc.srvs {
			if i != ownerIdx && len(s.cache.entries()) != 0 {
				return false
			}
		}
		return true
	})
	var handoffs int64
	for i, s := range tc.srvs {
		if i != ownerIdx {
			handoffs += s.met.clusterHandoffs.Load()
		}
	}
	if handoffs != 1 {
		t.Fatalf("survivors recorded %d handoffs, want 1", handoffs)
	}

	// The restarted owner serves the identity from the handed-off
	// entry: correct verdict, no new chase anywhere.
	res, err := tc.clis[ownerIdx].ExistsSolution(ctx, req)
	if err != nil {
		t.Fatalf("post-handoff solve: %v", err)
	}
	if res.Exists || !res.CacheHit {
		t.Fatalf("post-handoff solve should cache-hit the handed-off entry: %+v", res)
	}
	if n := tc.ownerComputes(); n != 1 {
		t.Fatalf("fleet ran %d chases after handoff, want still 1 (survivor's recompute)", n)
	}
}

// TestClusterCertainAnswers proxies the certain-answers and batch
// endpoints through a non-owner and checks the owner did the chasing.
func TestClusterCertainAnswers(t *testing.T) {
	tc := startTestCluster(t, 3)
	ctx := context.Background()

	reg, err := tc.clis[0].Register(ctx, example1)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	// The paper's triangle: a solution exists and q(x,y) :- H(x,y) has
	// exactly the certain answer (a, c).
	const src = "E(a,b). E(b,c). E(a,c)."
	srcInst, _ := pde.ParseInstance(src)
	srcID := instanceID(pde.FormatInstance(srcInst))
	cs, err := tc.clis[0].ClusterStatus(ctx, reg.ID, srcID, "")
	if err != nil {
		t.Fatalf("cluster status: %v", err)
	}
	caller := -1
	for i, u := range tc.urls {
		if u != cs.Owner {
			caller = i
			break
		}
	}

	out, err := tc.clis[caller].CertainAnswers(ctx, client.CertainRequest{
		SettingID: reg.ID, Source: src, Query: "q(x,y) :- H(x,y)",
	})
	if err != nil {
		t.Fatalf("certain via non-owner: %v", err)
	}
	if !out.SolutionExists || len(out.Answers) != 1 || out.Answers[0][0] != "a" || out.Answers[0][1] != "c" {
		t.Fatalf("triangle certain answers via non-owner: %+v, want exactly [a c]", out)
	}
	if tc.srvs[caller].met.clusterProxied.Load() == 0 {
		t.Fatal("certain-answers request was not proxied")
	}

	bout, err := tc.clis[caller].CertainBatch(ctx, client.CertainBatchRequest{
		SettingID: reg.ID, Source: src,
		Queries: []string{"q1(x,y) :- H(x,y)", "q2 :- H(x,x)"},
	})
	if err != nil {
		t.Fatalf("batch via non-owner: %v", err)
	}
	if len(bout.Results) != 2 {
		t.Fatalf("batch results: %+v", bout)
	}
	// Any chases this run triggered happened on the owning shard only.
	for i, s := range tc.srvs {
		if tc.urls[i] != cs.Owner && s.met.clusterOwnerComputes.Load() != 0 {
			t.Fatalf("non-owner shard %d chased %d times", i, s.met.clusterOwnerComputes.Load())
		}
	}
}

// TestClusterProxyByID proxies by-ID solves through non-owners. When
// the owner holds the IDs, the request crosses the hop as IDs and no
// instance is shipped; when the owner lacks an instance ID (registered
// on the caller only, an appended child, a target side), the caller
// registers it there once and later solves hit by ID; when the owner
// lacks only the setting, the setting is healed and no instance is
// shipped. The client never sees the owner's not-found.
func TestClusterProxyByID(t *testing.T) {
	tc := startTestCluster(t, 3)
	ctx := context.Background()
	reg, err := tc.clis[0].Register(ctx, example1)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	idOf := func(text string) string {
		inst, err := pde.ParseInstance(text)
		if err != nil {
			t.Fatal(err)
		}
		return instanceID(pde.FormatInstance(inst))
	}
	// route returns the owning shard of a (source, target) identity and
	// the first shard that does not own it.
	route := func(srcID, tgtID string) (owner, caller int) {
		url := tc.srvs[0].cluster.ring.Owner(cluster.Key(reg.ID, srcID, tgtID))
		owner, caller = -1, -1
		for i, u := range tc.urls {
			switch {
			case u == url:
				owner = i
			case caller < 0:
				caller = i
			}
		}
		return owner, caller
	}
	inlined := func(i int) int64 { return tc.srvs[i].met.clusterProxyInlined.Load() }

	// Hit: the triangle is registered on every shard, so exists,
	// certain and batch all cross the hop by ID and agree with the
	// owner's own answers, from one chase on the owner.
	const triangle = "E(a,b). E(b,c). E(a,c)."
	iid := idOf(triangle)
	for i, cli := range tc.clis {
		if ri, err := cli.RegisterInstance(ctx, triangle); err != nil || ri.ID != iid {
			t.Fatalf("registering the triangle on shard %d: %+v, %v", i, ri, err)
		}
	}
	owner, caller := route(iid, emptyInstance.ID)
	query := "q(x,y) :- H(x,y)"
	batch := []string{"q1(x,y) :- H(x,y)", "q2 :- H(x,x)"}
	answers := func(cli *client.Client) (out [3]string) {
		t.Helper()
		res, err := cli.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, SourceID: iid})
		if err != nil {
			t.Fatalf("exists by ID: %v", err)
		}
		cert, err := cli.CertainAnswers(ctx, client.CertainRequest{SettingID: reg.ID, SourceID: iid, Query: query})
		if err != nil {
			t.Fatalf("certain by ID: %v", err)
		}
		bout, err := cli.CertainBatch(ctx, client.CertainBatchRequest{SettingID: reg.ID, SourceID: iid, Queries: batch})
		if err != nil {
			t.Fatalf("batch by ID: %v", err)
		}
		out[0] = fmt.Sprint(res.Exists)
		out[1] = fmt.Sprint(cert.SolutionExists, cert.Certain, cert.Answers)
		for _, r := range bout.Results {
			out[2] += fmt.Sprint(r.Name, r.SolutionExists, r.Certain, r.Answers, ";")
		}
		return out
	}
	// The caller goes first, so the owner's one chase serves the proxy.
	got := answers(tc.clis[caller])
	want := answers(tc.clis[owner])
	if got != want || want[0] != "true" || want[1] != "true false [[a c]]" {
		t.Fatalf("by-ID answers via non-owner %q, owner's own %q", got, want)
	}
	if p := tc.srvs[caller].met.clusterProxied.Load(); p != 3 {
		t.Fatalf("caller proxied %d solves, want 3", p)
	}
	if n := inlined(caller); n != 0 {
		t.Fatalf("caller re-sent %d solves inline, want 0", n)
	}
	if n, m := tc.ownerComputes(), tc.srvs[owner].met.clusterOwnerComputes.Load(); n != 1 || m != 1 {
		t.Fatalf("fleet ran %d chases, owner %d; want exactly 1 on the owner", n, m)
	}

	// Misses: each by-ID solve through a non-owner answers exactly as
	// the owner does on the inlined facts, registers wantShipped
	// instances there (counted once per solve), and computes nothing on
	// the caller; the same solve again then crosses the hop by ID.
	miss := func(name string, req client.SolveRequest, facts, target string, wantShipped int64) {
		t.Helper()
		tgtID := emptyInstance.ID
		if req.TargetID != "" {
			tgtID = req.TargetID
		}
		owner, caller := route(req.SourceID, tgtID)
		req.SettingID = reg.ID
		before, computes := inlined(caller), tc.srvs[caller].met.clusterOwnerComputes.Load()
		for round := 0; round < 2; round++ {
			res, err := tc.clis[caller].ExistsSolution(ctx, req)
			if err != nil {
				t.Fatalf("%s: by-ID solve %d via non-owner: %v", name, round, err)
			}
			local, err := tc.clis[owner].ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, Source: facts, Target: target})
			if err != nil {
				t.Fatalf("%s: inline solve on the owner: %v", name, err)
			}
			if res.Exists != local.Exists {
				t.Fatalf("%s: via non-owner exists=%v, owner's own %v", name, res.Exists, local.Exists)
			}
			want := int64(0)
			if wantShipped > 0 {
				want = 1
			}
			if n := inlined(caller) - before; n != want {
				t.Fatalf("%s: after solve %d the caller counted %d owner misses, want %d", name, round, n, want)
			}
		}
		for _, id := range []string{req.SourceID, req.TargetID} {
			if id != "" && tc.srvs[owner].inst.Get(id) == nil {
				t.Fatalf("%s: owner does not hold %s after the solve", name, id)
			}
		}
		if n := tc.srvs[caller].met.clusterOwnerComputes.Load(); n != computes {
			t.Fatalf("%s: caller computed locally", name)
		}
	}

	// (1) An instance registered on the caller only.
	const path = "E(a,b). E(b,c)."
	pathID := idOf(path)
	_, pathCaller := route(pathID, emptyInstance.ID)
	if _, err := tc.clis[pathCaller].RegisterInstance(ctx, path); err != nil {
		t.Fatal(err)
	}
	miss("caller-only instance", client.SolveRequest{SourceID: pathID}, path, "", 1)

	// (2) An appended child: the base is everywhere, the child only on
	// the shard that took the append.
	const base, more = "E(c,d).", "E(d,e). E(c,e)."
	childID := idOf(base + " " + more)
	_, childCaller := route(childID, emptyInstance.ID)
	for _, cli := range tc.clis {
		if _, err := cli.RegisterInstance(ctx, base); err != nil {
			t.Fatal(err)
		}
	}
	ar, err := tc.clis[childCaller].AppendInstance(ctx, idOf(base), client.AppendRequest{Facts: more})
	if err != nil || ar.ID != childID {
		t.Fatalf("append: %+v, %v (want child %s)", ar, err, childID)
	}
	miss("appended child", client.SolveRequest{SourceID: childID}, base+" "+more, "", 1)

	// (3) A target by ID on the caller only, next to a source the owner
	// holds: both by-ID sides are registered with one miss.
	const target = "H(a,c)."
	tgtID := idOf(target)
	_, tgtCaller := route(iid, tgtID)
	if _, err := tc.clis[tgtCaller].RegisterInstance(ctx, target); err != nil {
		t.Fatal(err)
	}
	miss("caller-only target", client.SolveRequest{SourceID: iid, TargetID: tgtID}, triangle, target, 1)

	// (4) The setting evicted on the owner, which still holds the
	// triangle: the setting is healed and no instance is shipped, for a
	// by-ID request and for one that arrived inline.
	for _, req := range []client.SolveRequest{{SourceID: iid}, {Source: triangle}} {
		if err := tc.clis[owner].Evict(ctx, reg.ID); err != nil {
			t.Fatalf("evicting the setting on the owner: %v", err)
		}
		if req.SourceID != "" {
			miss("evicted setting, by ID", req, triangle, "", 0)
			continue
		}
		before := inlined(caller)
		req.SettingID = reg.ID
		if res, err := tc.clis[caller].ExistsSolution(ctx, req); err != nil || !res.Exists {
			t.Fatalf("evicted setting, inline: %+v, %v", res, err)
		}
		if n := inlined(caller) - before; n != 0 {
			t.Fatalf("evicted setting, inline: caller counted %d owner misses, want 0", n)
		}
	}
}

// TestClusterStatusSingleNode: a plain daemon reports enabled=false and
// no members.
func TestClusterStatusSingleNode(t *testing.T) {
	_, cli := newTestServer(t, Config{})
	cs, err := cli.ClusterStatus(context.Background(), "", "", "")
	if err != nil {
		t.Fatalf("cluster status: %v", err)
	}
	if cs.Enabled || cs.Owner != "" || len(cs.Members) != 0 {
		t.Fatalf("single-node status: %+v", cs)
	}
}
