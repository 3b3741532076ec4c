// Package client is the typed Go client for pdxd, the PDE serving
// daemon (cmd/pdx serve). It also defines the wire types of the
// HTTP/JSON API, shared with the server implementation so the two
// cannot drift.
//
// All requests and responses are JSON. Settings, instances, and
// queries travel as text in the same formats the library parsers
// accept (pde.ParseSetting, pde.ParseInstance, pde.ParseQueries), so
// anything that works with the pdx CLI works over the wire unchanged.
package client

import "fmt"

// RegisterRequest registers a PDE setting with the daemon. The setting
// is compiled once — parsed, vetted, classified — and stored under a
// content hash of its canonical text, so registering the same setting
// twice is idempotent and returns the same ID.
type RegisterRequest struct {
	// Setting is the setting source text (.pde format).
	Setting string `json:"setting"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	// ID is the content-hash identifier ("sha256:<hex>") used by all
	// subsequent requests against this setting.
	ID string `json:"id"`
	// Name is the setting's declared name.
	Name string `json:"name"`
	// InCtract reports membership in the tractable class C_tract.
	InCtract bool `json:"in_ctract"`
	// Strategy is the algorithm solves against this setting will use
	// ("tractable" or "generic").
	Strategy string `json:"strategy"`
	// Warnings counts non-error vet diagnostics recorded at
	// registration (settings with vet errors are rejected).
	Warnings int `json:"warnings"`
	// Created is false when the setting was already registered and this
	// call was a no-op.
	Created bool `json:"created"`
}

// SettingSummary describes one registered setting.
type SettingSummary struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	InCtract bool   `json:"in_ctract"`
	Strategy string `json:"strategy"`
}

// ListSettingsResponse lists the registry contents in registration
// order.
type ListSettingsResponse struct {
	Settings []SettingSummary `json:"settings"`
}

// RegisterInstanceRequest registers an instance with the daemon. Like
// settings, instances are stored under a content hash of their
// canonical text, so registration is idempotent and the ID doubles as
// the key of the server's chased-result cache.
type RegisterInstanceRequest struct {
	// Instance is the instance as fact text ("E(a,b). E(b,c).").
	Instance string `json:"instance"`
}

// RegisterInstanceResponse acknowledges an instance registration.
type RegisterInstanceResponse struct {
	// ID is the content-hash identifier ("sha256:<hex>").
	ID string `json:"id"`
	// Facts is the number of distinct facts stored.
	Facts int `json:"facts"`
	// Created is false when the instance was already registered.
	Created bool `json:"created"`
}

// InstanceSummary describes one stored instance.
type InstanceSummary struct {
	ID    string `json:"id"`
	Facts int    `json:"facts"`
	// Parent is the instance this one was appended from, when any.
	Parent string `json:"parent,omitempty"`
}

// ListInstancesResponse lists the instance registry in registration
// order.
type ListInstancesResponse struct {
	Instances []InstanceSummary `json:"instances"`
}

// AppendRequest appends facts to a registered instance. Instances are
// immutable, so the append produces a new instance (base ∪ facts) under
// its own content hash; the response carries the new ID. Chased-result
// cache entries built over the base instance are migrated eagerly to
// the new instance by resuming their chases with just the appended
// facts (falling back to a full re-chase when egds are involved).
type AppendRequest struct {
	// Facts is the batch to append, as fact text.
	Facts string `json:"facts"`
	// DeadlineMillis bounds the cache migration work; 0 uses the server
	// default.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// AppendResponse reports an append.
type AppendResponse struct {
	// ID identifies the appended-to instance (equal to the base ID when
	// the batch added nothing new).
	ID string `json:"id"`
	// Parent is the base instance ID.
	Parent string `json:"parent"`
	// Added is the number of genuinely new facts (batch minus
	// duplicates).
	Added int `json:"added"`
	// Facts is the total fact count of the new instance.
	Facts int `json:"facts"`
	// Migrated counts the cache entries carried over to the new
	// instance; Resumed of them continued their chase incrementally,
	// Fallbacks re-chased from scratch.
	Migrated  int `json:"migrated"`
	Resumed   int `json:"resumed"`
	Fallbacks int `json:"fallbacks"`
	// Created is false when the resulting instance was already
	// registered.
	Created bool `json:"created"`
}

// SolveRequest asks whether (I, J) has a solution under a registered
// setting (the SOL(P) problem). Each instance travels either inline
// (Source/Target, fact text) or by registry ID (SourceID/TargetID) —
// setting both for the same side is an error. Registered instances hit
// the server's chased-result cache by ID; inline instances are hashed
// and cached the same way.
type SolveRequest struct {
	// SettingID is the registry ID returned by Register.
	SettingID string `json:"setting_id"`
	// Source is the source instance I as fact text ("E(a,b). E(b,c).").
	Source string `json:"source,omitempty"`
	// SourceID is the registry ID of the source instance.
	SourceID string `json:"source_id,omitempty"`
	// Target is the target instance J; empty means ∅.
	Target string `json:"target,omitempty"`
	// TargetID is the registry ID of the target instance.
	TargetID string `json:"target_id,omitempty"`
	// DeadlineMillis bounds the solve; 0 uses the server default. The
	// server caps it at its configured maximum.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// MaxNodes bounds the generic solver's search tree; 0 means the
	// server default. The server caps it at its own bound.
	MaxNodes int64 `json:"max_nodes,omitempty"`
	// Witness requests a witness solution in the response.
	Witness bool `json:"witness,omitempty"`
}

// SolveResponse reports a SOL(P) verdict.
type SolveResponse struct {
	Exists bool `json:"exists"`
	// Strategy is the algorithm that ran ("tractable" or "generic").
	Strategy string `json:"strategy"`
	// Nodes is the number of search nodes the generic solver visited
	// (0 for the tractable algorithm).
	Nodes int64 `json:"nodes,omitempty"`
	// Solution is the witness solution as fact text, when requested and
	// one exists.
	Solution string `json:"solution,omitempty"`
	// CacheHit reports that the solve started from a cached chased
	// instance instead of chasing from scratch.
	CacheHit bool `json:"cache_hit,omitempty"`
	// ElapsedMillis is the server-side solve time.
	ElapsedMillis int64 `json:"elapsed_ms"`
}

// CertainRequest asks for the certain answers of a query over every
// solution for (I, J).
type CertainRequest struct {
	SettingID string `json:"setting_id"`
	// Source/SourceID and Target/TargetID resolve exactly as in
	// SolveRequest: inline text or a registered instance ID per side.
	Source   string `json:"source,omitempty"`
	SourceID string `json:"source_id,omitempty"`
	Target   string `json:"target,omitempty"`
	TargetID string `json:"target_id,omitempty"`
	// Query is one conjunctive query, "q(x,y) :- H(x,y)" syntax; an
	// empty head makes it Boolean.
	Query          string `json:"query"`
	DeadlineMillis int64  `json:"deadline_ms,omitempty"`
}

// CertainResponse reports a certain-answers computation.
type CertainResponse struct {
	// SolutionExists is false when (I, J) has no solution at all (every
	// query is then vacuously certain).
	SolutionExists bool `json:"solution_exists"`
	// Certain is the verdict for Boolean queries.
	Certain bool `json:"certain"`
	// Answers holds the certain tuples of open queries, each a list of
	// constants, in sorted order.
	Answers [][]string `json:"answers,omitempty"`
	// SolutionsExamined counts the candidate solutions enumerated.
	SolutionsExamined int `json:"solutions_examined,omitempty"`
	// CacheHit reports that the enumeration started from a cached
	// chased instance.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Compiled reports that a compiled plan answered the query without
	// chasing or enumerating solutions.
	Compiled bool `json:"compiled,omitempty"`
	// FallbackReason is why the compiled path declined and the
	// enumeration ran instead ("" when the compiled path ran).
	FallbackReason string `json:"fallback_reason,omitempty"`
	ElapsedMillis  int64  `json:"elapsed_ms"`
}

// CertainBatchRequest asks for the certain answers of many queries
// over one (setting, I, J) triple in a single round trip. Compiled
// settings run their solution probes once and evaluate every query
// against the same verdict.
type CertainBatchRequest struct {
	SettingID string `json:"setting_id"`
	// Source/SourceID and Target/TargetID resolve exactly as in
	// SolveRequest.
	Source   string `json:"source,omitempty"`
	SourceID string `json:"source_id,omitempty"`
	Target   string `json:"target,omitempty"`
	TargetID string `json:"target_id,omitempty"`
	// Queries holds one conjunctive query per entry, "q(x,y) :- H(x,y)"
	// syntax.
	Queries        []string `json:"queries"`
	DeadlineMillis int64    `json:"deadline_ms,omitempty"`
}

// CertainBatchResult is the per-query result of a batch call.
type CertainBatchResult struct {
	// Name is the query's head name.
	Name           string     `json:"name"`
	SolutionExists bool       `json:"solution_exists"`
	Certain        bool       `json:"certain"`
	Answers        [][]string `json:"answers,omitempty"`
	Compiled       bool       `json:"compiled,omitempty"`
	FallbackReason string     `json:"fallback_reason,omitempty"`
}

// CertainBatchResponse reports a batch certain-answers computation.
type CertainBatchResponse struct {
	// Results holds one entry per request query, in request order.
	Results []CertainBatchResult `json:"results"`
	// CacheHit reports that an enumeration fallback started from a
	// cached chased instance (always false when every query compiled).
	CacheHit      bool  `json:"cache_hit,omitempty"`
	ElapsedMillis int64 `json:"elapsed_ms"`
}

// ClassifyRequest classifies a setting against C_tract (Definition 9).
// Exactly one of SettingID and Setting must be set.
type ClassifyRequest struct {
	SettingID string `json:"setting_id,omitempty"`
	// Setting is inline setting text, classified without registering.
	Setting string `json:"setting,omitempty"`
}

// ClassifyResponse mirrors pde.Classify's report.
type ClassifyResponse struct {
	InCtract   bool     `json:"in_ctract"`
	Cond1      bool     `json:"cond1"`
	Cond21     bool     `json:"cond21"`
	Cond22     bool     `json:"cond22"`
	Violations []string `json:"violations,omitempty"`
	Summary    string   `json:"summary"`
}

// VetRequest runs the static-analysis checks over setting text.
type VetRequest struct {
	Setting string `json:"setting"`
	// File names the setting in diagnostics; defaults to "<request>".
	File string `json:"file,omitempty"`
}

// Diagnostic is one vet finding on the wire.
type Diagnostic struct {
	Check    string `json:"check"`
	Severity string `json:"severity"`
	File     string `json:"file,omitempty"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// VetResponse reports a vet run.
type VetResponse struct {
	File        string       `json:"file"`
	Errors      int          `json:"errors"`
	Warnings    int          `json:"warnings"`
	Infos       int          `json:"infos"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
}

// CacheKeySummary describes one cache entry available for warm
// transfer. Key is the snapshot key (the hex sha256 of the composite
// cache identity) addressing /v1/cache/entries/{key}.
type CacheKeySummary struct {
	Key       string `json:"key"`
	SettingID string `json:"setting_id"`
	SourceID  string `json:"source_id"`
	TargetID  string `json:"target_id"`
	Kind      string `json:"kind"`
}

// CacheKeysResponse lists the transferable cache entries, sorted by
// key.
type CacheKeysResponse struct {
	Keys []CacheKeySummary `json:"keys"`
}

// ClusterMemberStatus describes one shard of a pdxd cluster.
type ClusterMemberStatus struct {
	// URL is the member's advertised base URL (its ring identity).
	URL string `json:"url"`
	// Alive reports whether the responding daemon currently sees the
	// member as up (dead members take no placements).
	Alive bool `json:"alive"`
	// Self marks the responding daemon's own entry.
	Self bool `json:"self,omitempty"`
}

// ClusterStatusResponse reports a daemon's view of the ring: the
// static membership with liveness, the placement version (bumped on
// every liveness change), and — when the request carried a cache
// identity — the shard owning that identity.
type ClusterStatusResponse struct {
	// Enabled is false for a single-node daemon (all other fields are
	// then zero).
	Enabled bool `json:"enabled"`
	// Self is the responding daemon's advertised base URL.
	Self string `json:"self,omitempty"`
	// Version is the current placement version.
	Version uint64 `json:"version,omitempty"`
	// Members is the static membership, sorted by URL.
	Members []ClusterMemberStatus `json:"members,omitempty"`
	// Owner is the base URL of the shard owning the queried
	// (setting_id, source_id, target_id) identity, when one was sent.
	Owner string `json:"owner,omitempty"`
}

// HealthResponse reports daemon liveness.
type HealthResponse struct {
	Status    string `json:"status"`
	Settings  int    `json:"settings"`
	Instances int    `json:"instances"`
	InFlight  int    `json:"in_flight"`
}

// Error codes carried in APIError.Code.
const (
	CodeBadRequest       = "bad_request"       // 400: malformed JSON or unparsable text
	CodeNotFound         = "not_found"         // 404: unknown setting ID
	CodeUnprocessable    = "unprocessable"     // 422: setting rejected by vet, or budget exhausted
	CodeOverloaded       = "overloaded"        // 429: admission queue full, retry later
	CodeShuttingDown     = "shutting_down"     // 503: daemon draining
	CodeCanceled         = "canceled"          // 503: request canceled before completion
	CodeDeadlineExceeded = "deadline_exceeded" // 504: solve exceeded its deadline
	CodeInternal         = "internal"          // 500
)

// APIError is the error envelope every non-2xx response carries, as
// {"error": {"code": ..., "message": ...}}. The client returns it as
// the error value, so callers can switch on Code or Status.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Status is the HTTP status code (filled by the client, not on the
	// wire).
	Status int `json:"-"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("pdxd: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// errorBody is the wire envelope for APIError.
type errorBody struct {
	Error *APIError `json:"error"`
}
