package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
)

// recorded is what the fake daemon saw of one request.
type recorded struct {
	method, path, query, forwarded, contentType string
	body                                        []byte
}

// fakeDaemon answers every request with the given status and body; the
// returned func reports the last request it saw.
func fakeDaemon(t *testing.T, status int, contentType, body string) (*Client, func() recorded) {
	t.Helper()
	var mu sync.Mutex
	var rec recorded
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		mu.Lock()
		defer mu.Unlock()
		rec = recorded{
			method:      r.Method,
			path:        r.URL.Path,
			query:       r.URL.RawQuery,
			forwarded:   r.Header.Get(ForwardedHeader),
			contentType: r.Header.Get("Content-Type"),
			body:        data,
		}
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(status)
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL), func() recorded {
		mu.Lock()
		defer mu.Unlock()
		return rec
	}
}

// wantAPIError checks err is an *APIError with the given status and code.
func wantAPIError(t *testing.T, what string, err error, status int, code string) *APIError {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("%s: want *APIError, got %v", what, err)
	}
	if apiErr.Status != status || apiErr.Code != code {
		t.Fatalf("%s: got %d %s, want %d %s", what, apiErr.Status, apiErr.Code, status, code)
	}
	return apiErr
}

// The three request paths — JSON routes, the snapshot push, and the
// snapshot fetch — turn a JSON error envelope into the same *APIError,
// and a body that is not the envelope into CodeInternal; both carry the
// HTTP status.
func TestErrorEnvelope(t *testing.T) {
	ctx := context.Background()
	calls := []struct {
		name string
		call func(c *Client) error
	}{
		{"json route", func(c *Client) error { _, err := c.Health(ctx); return err }},
		{"push cache entry", func(c *Client) error { return c.PushCacheEntry(ctx, "k", []byte("snap")) }},
		{"cache entry", func(c *Client) error { _, err := c.CacheEntry(ctx, "k"); return err }},
	}
	for _, tc := range calls {
		t.Run(tc.name+"/json", func(t *testing.T) {
			c, _ := fakeDaemon(t, http.StatusNotFound, "application/json",
				`{"error":{"code":"not_found","message":"setting \"x\" is not registered"}}`)
			apiErr := wantAPIError(t, tc.name, tc.call(c), http.StatusNotFound, CodeNotFound)
			if apiErr.Message != `setting "x" is not registered` {
				t.Fatalf("message %q", apiErr.Message)
			}
		})
		t.Run(tc.name+"/non-json", func(t *testing.T) {
			c, _ := fakeDaemon(t, http.StatusBadGateway, "text/plain", "upstream exploded")
			apiErr := wantAPIError(t, tc.name, tc.call(c), http.StatusBadGateway, CodeInternal)
			if apiErr.Message != "non-JSON error response: upstream exploded" {
				t.Fatalf("message %q", apiErr.Message)
			}
		})
	}
}

func TestForwardedStampsHeaderOnCopy(t *testing.T) {
	ctx := context.Background()
	c, last := fakeDaemon(t, http.StatusOK, "application/json", `{"status":"ok"}`)
	fwd := c.Forwarded()
	if _, err := fwd.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if got := last().forwarded; got != "1" {
		t.Fatalf("forwarded client sent %s=%q, want 1", ForwardedHeader, got)
	}
	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if got := last().forwarded; got != "" {
		t.Fatalf("original client sent %s=%q after Forwarded()", ForwardedHeader, got)
	}
	if fwd.Base() != c.Base() {
		t.Fatalf("copy base %q, original %q", fwd.Base(), c.Base())
	}
}

func TestClusterStatusQuery(t *testing.T) {
	ctx := context.Background()
	c, last := fakeDaemon(t, http.StatusOK, "application/json", `{"enabled":true,"owner":"http://b"}`)
	for _, tc := range []struct {
		name                    string
		setting, source, target string
		want                    url.Values
		wantEmpty               bool
	}{
		{name: "no identity", wantEmpty: true},
		{name: "setting and source", setting: "sha256:s", source: "sha256:i",
			want: url.Values{"setting_id": {"sha256:s"}, "source_id": {"sha256:i"}}},
		{name: "full identity", setting: "sha256:s", source: "sha256:i", target: "sha256:j&x",
			want: url.Values{"setting_id": {"sha256:s"}, "source_id": {"sha256:i"}, "target_id": {"sha256:j&x"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := c.ClusterStatus(ctx, tc.setting, tc.source, tc.target)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Enabled || out.Owner != "http://b" {
				t.Fatalf("decoded %+v", out)
			}
			rec := last()
			if rec.method != http.MethodGet || rec.path != "/v1/cluster" {
				t.Fatalf("sent %s %s", rec.method, rec.path)
			}
			if tc.wantEmpty {
				if rec.query != "" {
					t.Fatalf("query %q, want none", rec.query)
				}
				return
			}
			got, err := url.ParseQuery(rec.query)
			if err != nil {
				t.Fatal(err)
			}
			if got.Encode() != tc.want.Encode() {
				t.Fatalf("query %q, want %q", got.Encode(), tc.want.Encode())
			}
		})
	}
}

func TestCacheEntryRoundTrips(t *testing.T) {
	ctx := context.Background()
	c, last := fakeDaemon(t, http.StatusOK, "application/octet-stream", "snapshot-bytes")
	data, err := c.CacheEntry(ctx, "a/b")
	if err != nil {
		t.Fatal(err)
	}
	rec := last()
	if string(data) != "snapshot-bytes" || rec.method != http.MethodGet || rec.path != "/v1/cache/entries/a/b" {
		t.Fatalf("fetch: got %q via %s %s", data, rec.method, rec.path)
	}
	if err := c.PushCacheEntry(ctx, "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	rec = last()
	if rec.method != http.MethodPut || string(rec.body) != "payload" || rec.contentType != "application/octet-stream" {
		t.Fatalf("push: sent %s %q as %q", rec.method, rec.body, rec.contentType)
	}
}

func TestJSONRequestEncoding(t *testing.T) {
	ctx := context.Background()
	c, last := fakeDaemon(t, http.StatusOK, "application/json", `{"exists":true,"strategy":"tractable","elapsed_ms":3}`)
	out, err := c.ExistsSolution(ctx, SolveRequest{SettingID: "sha256:s", Source: "E(a,a)."})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Exists || out.Strategy != "tractable" || out.ElapsedMillis != 3 {
		t.Fatalf("decoded %+v", out)
	}
	rec := last()
	if rec.method != http.MethodPost || rec.path != "/v1/exists-solution" || rec.contentType != "application/json" {
		t.Fatalf("sent %s %s as %q", rec.method, rec.path, rec.contentType)
	}
	if string(rec.body) != `{"setting_id":"sha256:s","source":"E(a,a)."}` {
		t.Fatalf("body %s", rec.body)
	}
}
