package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/server"
	"repro/pde/client"
)

// deployment is pdxd booted in-process behind a real http.Server on a
// loopback listener. A cluster's shards share the listener under the
// path prefixes /s0, /s1, ..., so one keep-alive connection per
// benchmark client reaches every shard; the shards' ring identities and
// proxy hops use the same prefixed URLs.
type deployment struct {
	srvs    []*server.Server
	urls    []string // base URL of each shard
	hs      *http.Server
	served  chan struct{} // closed when Serve returns
	scratch string        // directory removed once the daemons are closed
}

// boot starts n daemons built from config. preload, when non-nil, runs
// on every daemon after construction and before the listener serves,
// so nothing can reach a daemon that has not finished restoring.
func boot(n int, config func(shard int, urls []string) server.Config, preload func(*server.Server) error) (*deployment, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	base := "http://" + ln.Addr().String()
	d := &deployment{served: make(chan struct{})}
	for i := 0; i < n; i++ {
		u := base
		if n > 1 {
			u = fmt.Sprintf("%s/s%d", base, i)
		}
		d.urls = append(d.urls, u)
	}
	mux := http.NewServeMux()
	for i := range d.urls {
		s := server.New(config(i, d.urls))
		d.srvs = append(d.srvs, s)
		if n == 1 {
			break
		}
		prefix := fmt.Sprintf("/s%d", i)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, s.Handler()))
	}
	for _, s := range d.srvs {
		if preload == nil {
			continue
		}
		if err := preload(s); err != nil {
			ln.Close()
			d.closeServers()
			return nil, err
		}
	}
	var h http.Handler = mux
	if n == 1 {
		h = d.srvs[0].Handler()
	}
	d.hs = &http.Server{Handler: h}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return d, nil
}

// clients returns one typed client per shard, all on hc.
func (d *deployment) clients(hc *http.Client) []*client.Client {
	out := make([]*client.Client, len(d.urls))
	for i, u := range d.urls {
		out[i] = client.New(u, hc)
	}
	return out
}

// close stops the listener and every connection, then the daemons
// (cluster monitors, write-behind snapshot queues).
func (d *deployment) close() {
	_ = d.hs.Close() // the only error is the listener's close error
	<-d.served
	d.closeServers()
	if d.scratch != "" {
		_ = os.RemoveAll(d.scratch) // scratch space; a leftover is removed with the run's directory
	}
}

func (d *deployment) closeServers() {
	for _, s := range d.srvs {
		s.Close()
	}
}

// waitRing blocks until every shard sees every member alive.
func (d *deployment) waitRing(ctx context.Context, hc *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, c := range d.clients(hc) {
		for {
			st, err := c.ClusterStatus(ctx, "", "", "")
			if err != nil {
				return fmt.Errorf("cluster status of %s: %w", c.Base(), err)
			}
			if alive(st) == len(d.urls) {
				break
			}
			select {
			case <-ctx.Done():
				return errors.New("cluster ring did not converge within 30s")
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	return nil
}

func alive(st client.ClusterStatusResponse) int {
	n := 0
	for _, m := range st.Members {
		if m.Alive {
			n++
		}
	}
	return n
}

// newHTTPClient returns a benchmark client's transport: a single
// keep-alive connection, so the load never holds more connections than
// it has clients.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}
