package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// ForwardedHeader marks a request that already crossed one shard of a
// pdxd cluster. A daemon receiving it computes locally even when the
// ring says another shard owns the key — the one-hop guard that keeps
// transiently disagreeing ring views from proxying in circles.
const ForwardedHeader = "X-Pdxd-Forwarded"

// Client talks to a pdxd daemon.
type Client struct {
	base string
	http *http.Client
	// forwarded stamps ForwardedHeader on every request (see Forwarded).
	forwarded bool
}

// New returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8642"). The optional http.Client overrides the
// default transport; per-request deadlines should normally travel in
// the request body (DeadlineMillis) so the server can budget the solve,
// with the context as a harder client-side stop.
func New(base string, hc ...*http.Client) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), http: http.DefaultClient}
	if len(hc) > 0 && hc[0] != nil {
		c.http = hc[0]
	}
	return c
}

// Base returns the daemon base URL the client talks to.
func (c *Client) Base() string { return c.base }

// Forwarded returns a copy of the client whose requests carry the
// cluster forwarding mark, so the receiving shard answers locally
// instead of proxying again. The original client is unchanged.
func (c *Client) Forwarded() *Client {
	out := *c
	out.forwarded = true
	return &out
}

// Register compiles and registers a setting, returning its registry ID.
func (c *Client) Register(ctx context.Context, settingText string) (RegisterResponse, error) {
	var out RegisterResponse
	err := c.post(ctx, "/v1/settings", RegisterRequest{Setting: settingText}, &out)
	return out, err
}

// Settings lists the registered settings.
func (c *Client) Settings(ctx context.Context) (ListSettingsResponse, error) {
	var out ListSettingsResponse
	err := c.do(ctx, http.MethodGet, "/v1/settings", nil, &out)
	return out, err
}

// Evict removes a setting from the registry.
func (c *Client) Evict(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/settings/"+url.PathEscape(id), nil, nil)
}

// RegisterInstance stores an instance under its content hash,
// enabling solve-by-ID and the server's chased-result cache.
func (c *Client) RegisterInstance(ctx context.Context, instanceText string) (RegisterInstanceResponse, error) {
	var out RegisterInstanceResponse
	err := c.post(ctx, "/v1/instances", RegisterInstanceRequest{Instance: instanceText}, &out)
	return out, err
}

// Instances lists the stored instances.
func (c *Client) Instances(ctx context.Context) (ListInstancesResponse, error) {
	var out ListInstancesResponse
	err := c.do(ctx, http.MethodGet, "/v1/instances", nil, &out)
	return out, err
}

// EvictInstance removes a stored instance and drops its cached chase
// results.
func (c *Client) EvictInstance(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/instances/"+url.PathEscape(id), nil, nil)
}

// AppendInstance appends facts to a stored instance, producing a new
// instance ID and migrating cached chase results to it.
func (c *Client) AppendInstance(ctx context.Context, id string, req AppendRequest) (AppendResponse, error) {
	var out AppendResponse
	err := c.post(ctx, "/v1/instances/"+url.PathEscape(id)+"/append", req, &out)
	return out, err
}

// ExistsSolution decides SOL(P) for the given instances.
func (c *Client) ExistsSolution(ctx context.Context, req SolveRequest) (SolveResponse, error) {
	var out SolveResponse
	err := c.post(ctx, "/v1/exists-solution", req, &out)
	return out, err
}

// CertainAnswers computes the certain answers of a query.
func (c *Client) CertainAnswers(ctx context.Context, req CertainRequest) (CertainResponse, error) {
	var out CertainResponse
	err := c.post(ctx, "/v1/certain-answers", req, &out)
	return out, err
}

// CertainBatch computes the certain answers of many queries over one
// instance pair in a single round trip.
func (c *Client) CertainBatch(ctx context.Context, req CertainBatchRequest) (CertainBatchResponse, error) {
	var out CertainBatchResponse
	err := c.post(ctx, "/v1/certain-answers/batch", req, &out)
	return out, err
}

// Classify reports C_tract membership of a registered or inline
// setting.
func (c *Client) Classify(ctx context.Context, req ClassifyRequest) (ClassifyResponse, error) {
	var out ClassifyResponse
	err := c.post(ctx, "/v1/classify", req, &out)
	return out, err
}

// Vet runs the static-analysis checks over setting text.
func (c *Client) Vet(ctx context.Context, req VetRequest) (VetResponse, error) {
	var out VetResponse
	err := c.post(ctx, "/v1/vet", req, &out)
	return out, err
}

// Health reports daemon liveness.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// CacheKeys lists the daemon's cache entries available for warm
// transfer.
func (c *Client) CacheKeys(ctx context.Context) (CacheKeysResponse, error) {
	var out CacheKeysResponse
	err := c.do(ctx, http.MethodGet, "/v1/cache/keys", nil, &out)
	return out, err
}

// ClusterStatus reports the daemon's ring membership. When settingID
// and sourceID are non-empty the response also names the shard owning
// that cache identity (targetID empty means the empty target instance).
func (c *Client) ClusterStatus(ctx context.Context, settingID, sourceID, targetID string) (ClusterStatusResponse, error) {
	path := "/v1/cluster"
	if settingID != "" || sourceID != "" || targetID != "" {
		q := url.Values{}
		q.Set("setting_id", settingID)
		q.Set("source_id", sourceID)
		if targetID != "" {
			q.Set("target_id", targetID)
		}
		path += "?" + q.Encode()
	}
	var out ClusterStatusResponse
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// PushCacheEntry hands one cache entry, in the binary snapshot wire
// format, to the daemon (cluster rebalancing handoff). The receiver
// re-validates the snapshot exactly like a warm start before
// installing it.
func (c *Client) PushCacheEntry(ctx context.Context, key string, data []byte) error {
	_, err := c.roundTrip(ctx, http.MethodPut, "/v1/cache/entries/"+url.PathEscape(key),
		bytes.NewReader(data), "application/octet-stream", 64<<20)
	return err
}

// CacheEntry fetches one cache entry in the binary snapshot wire
// format (decode with internal/snap). The key comes from CacheKeys.
func (c *Client) CacheEntry(ctx context.Context, key string) ([]byte, error) {
	return c.roundTrip(ctx, http.MethodGet, "/v1/cache/entries/"+url.PathEscape(key), nil, "", 256<<20)
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	return c.do(ctx, http.MethodPost, path, in, out)
}

// do sends one JSON request and decodes the response into out (when
// non-nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	contentType := ""
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body, contentType = bytes.NewReader(b), "application/json"
	}
	data, err := c.roundTrip(ctx, method, path, body, contentType, 64<<20)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// roundTrip sends one request and returns the response body, read up to
// limit bytes. A non-2xx response decodes the error envelope and returns
// it as an *APIError carrying the HTTP status; a body that is not the
// envelope becomes CodeInternal.
func (c *Client) roundTrip(ctx context.Context, method, path string, body io.Reader, contentType string, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.forwarded {
		req.Header.Set(ForwardedHeader, "1")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err == nil && eb.Error != nil {
			eb.Error.Status = resp.StatusCode
			return nil, eb.Error
		}
		return nil, &APIError{
			Code:    CodeInternal,
			Message: fmt.Sprintf("non-JSON error response: %.200s", data),
			Status:  resp.StatusCode,
		}
	}
	return data, nil
}
