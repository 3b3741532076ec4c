package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/url"
	"strings"
	"time"

	"repro/internal/server"
	"repro/pde/client"
)

// clusterConfig validates the serve command's cluster flags into a
// server.ClusterConfig, or nil when clustering is off (both flags
// empty). Setting only one of -cluster-self and -cluster-peers is a
// configuration error, not a single-node daemon.
func clusterConfig(self, peers string, probe time.Duration) (*server.ClusterConfig, error) {
	if self == "" && peers == "" {
		return nil, nil
	}
	if self == "" || peers == "" {
		return nil, fmt.Errorf("cluster mode needs both -cluster-self and -cluster-peers")
	}
	list := strings.Split(peers, ",")
	for i, p := range list {
		list[i] = strings.TrimSpace(p)
	}
	for _, u := range append([]string{self}, list...) {
		parsed, err := url.Parse(u)
		if err != nil || (parsed.Scheme != "http" && parsed.Scheme != "https") || parsed.Host == "" {
			return nil, fmt.Errorf("cluster member %q is not an http(s) base URL", u)
		}
	}
	return &server.ClusterConfig{
		Self:          self,
		Peers:         list,
		ProbeInterval: probe,
	}, nil
}

// cmdClusterStatus queries a shard's ring view (GET /v1/cluster) and
// prints the membership with liveness; given a cache identity it also
// prints — and with -owner-only, prints only — the owning shard, so
// scripts can route a request to its owner.
func cmdClusterStatus(args []string) error {
	fs := flag.NewFlagSet("cluster-status", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8642", "base URL of any shard")
	settingID := fs.String("setting-id", "", "setting ID of the cache identity to locate")
	sourceID := fs.String("source-id", "", "source instance ID of the cache identity to locate")
	targetID := fs.String("target-id", "", "target instance ID (empty = the empty instance)")
	ownerOnly := fs.Bool("owner-only", false, "print only the owner URL (requires -setting-id and -source-id)")
	asJSON := fs.Bool("json", false, "emit the raw status response as JSON")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*settingID == "") != (*sourceID == "") {
		return fmt.Errorf("-setting-id and -source-id go together")
	}
	if *ownerOnly && *settingID == "" {
		return fmt.Errorf("-owner-only requires -setting-id and -source-id")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	cs, err := client.New(*addr).ClusterStatus(ctx, *settingID, *sourceID, *targetID)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(cs)
	}
	if !cs.Enabled {
		fmt.Fprintln(stdout, "clustering: disabled (single-node daemon)")
		return nil
	}
	if *ownerOnly {
		fmt.Fprintln(stdout, cs.Owner)
		return nil
	}
	fmt.Fprintf(stdout, "self: %s (ring version %d)\n", cs.Self, cs.Version)
	for _, m := range cs.Members {
		state := "dead"
		if m.Alive {
			state = "alive"
		}
		mark := " "
		if m.Self {
			mark = "*"
		}
		fmt.Fprintf(stdout, "%s %s %s\n", mark, m.URL, state)
	}
	if cs.Owner != "" {
		fmt.Fprintf(stdout, "owner: %s\n", cs.Owner)
	}
	return nil
}
