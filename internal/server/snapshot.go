package server

// Snapshot persistence: the glue between the chase cache and the
// internal/snap store. Saves are write-behind — cache fills enqueue the
// completed entry on a bounded channel drained by one worker goroutine,
// so the solve path never waits on disk — and loads happen once at
// startup (LoadSnapshots) or on demand from a peer (WarmFrom). Every
// loaded snapshot is re-validated before installation: its key must be
// the hash of its identity, its instance texts must hash to the claimed
// instance IDs, its setting must already be registered, and its
// instances must fit the setting's schemas. A snapshot failing any of
// these is skipped and counted in pdxd_snapshot_load_errors_total —
// never trusted.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"

	"repro/internal/core"
	"repro/internal/snap"
	"repro/pde/client"
)

// errSettingUnregistered marks a snapshot rejected only because its
// setting is not in the local registry. A cluster peer pushing a
// handoff entry can heal this (register the setting, retry); every
// other rejection is final.
var errSettingUnregistered = errors.New("setting is not registered")

// snapQueueLen bounds the write-behind queue. A full queue drops the
// save (with a warning): the entry is still served from memory and will
// be re-saved if it is recomputed after a restart.
const snapQueueLen = 256

// snapKind maps a cache kind onto the codec's kind label.
func snapKind(k cacheKind) string {
	if k == kindTractable {
		return snap.KindTractable
	}
	return snap.KindGeneric
}

// snapEntry builds the codec entry for a completed cache entry, or nil
// when the entry cannot be serialized (no instances — the detached
// entries of a disabled cache carry none). The instance texts are the
// canonical texts stored with the instances, so a save formats nothing.
func snapEntry(e *cacheEntry) *snap.Entry {
	if e.src == nil || e.tgt == nil {
		return nil
	}
	se := &snap.Entry{
		SettingID:  e.settingID,
		SourceID:   e.src.ID,
		TargetID:   e.tgt.ID,
		Kind:       snapKind(e.kind),
		SourceText: e.src.Text,
		TargetText: e.tgt.Text,
	}
	switch v := e.value.(type) {
	case *core.TractableTrace:
		se.Tractable = v
	case *core.CanonicalTarget:
		se.Generic = v
	default:
		return nil
	}
	return se
}

// snapKeyOf returns the snapshot key of a cache entry.
func snapKeyOf(e *cacheEntry) string {
	return snap.Key(e.settingID, e.src.ID, e.tgt.ID, snapKind(e.kind))
}

// saveAsync enqueues a completed cache entry for the write-behind
// worker. It never blocks: with the queue full the save is dropped and
// logged. Safe to call with snapshots disabled, and with an entry that
// carries no instances (both no-ops).
func (s *Server) saveAsync(e *cacheEntry) {
	if s.cfg.Snapshots == nil || e == nil || e.src == nil || e.tgt == nil {
		return
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.snapClosed {
		return
	}
	select {
	case s.snapQ <- e:
	default:
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "snapshot queue full, dropping save",
			slog.String("key", snapKeyOf(e)))
	}
}

// snapWorker drains the write-behind queue until Close closes it.
func (s *Server) snapWorker() {
	defer close(s.snapDone)
	for e := range s.snapQ {
		s.saveSnapshot(e)
	}
}

// saveSnapshot encodes one entry and writes it to the store.
func (s *Server) saveSnapshot(e *cacheEntry) {
	se := snapEntry(e)
	if se == nil {
		return
	}
	key := snapKeyOf(e)
	data, err := snap.Encode(se)
	if err == nil {
		err = s.cfg.Snapshots.Save(key, data)
	}
	if err != nil {
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "snapshot save failed",
			slog.String("key", key), slog.String("err", err.Error()))
		return
	}
	s.met.snapshotSaves.Add(1)
}

// Close stops the cluster monitor, then flushes the write-behind queue
// and stops its worker. Idempotent and safe without a snapshot store or
// cluster. Call after the HTTP server has shut down so every admitted
// solve has had its chance to enqueue.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.cluster != nil {
			close(s.cluster.stop)
			<-s.cluster.done
		}
		if s.cfg.Snapshots == nil {
			return
		}
		s.snapMu.Lock()
		s.snapClosed = true
		s.snapMu.Unlock()
		close(s.snapQ)
		<-s.snapDone
	})
}

// LoadSnapshots scans the snapshot store and installs every snapshot
// that validates against the current registries, returning the counts
// of installed and rejected snapshots. Call it after preloading
// settings: a snapshot whose setting is not registered is rejected (its
// file stays put — a later restart with the setting preloaded will pick
// it up).
func (s *Server) LoadSnapshots() (loaded, failed int) {
	if s.cfg.Snapshots == nil {
		return 0, 0
	}
	keys, err := s.cfg.Snapshots.List()
	if err != nil {
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "snapshot scan failed",
			slog.String("err", err.Error()))
		return 0, 0
	}
	for _, key := range keys {
		if err := s.loadSnapshot(key); err != nil {
			failed++
			s.met.snapshotLoadErrors.Add(1)
			s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "snapshot rejected",
				slog.String("key", key), slog.String("err", err.Error()))
			continue
		}
		loaded++
		s.met.snapshotLoads.Add(1)
	}
	return loaded, failed
}

// loadSnapshot reads, decodes, and installs one stored snapshot.
func (s *Server) loadSnapshot(key string) error {
	data, err := s.cfg.Snapshots.Load(key)
	if err != nil {
		return err
	}
	e, err := snap.Decode(data)
	if err != nil {
		return err
	}
	return s.installSnapshot(key, e, false)
}

// installSnapshot validates a decoded snapshot and installs it into the
// chase cache, registering its instances. fromPeer marks warm-transfer
// installs: they count as warm transfers and are persisted to the local
// store via the write-behind queue.
func (s *Server) installSnapshot(key string, e *snap.Entry, fromPeer bool) error {
	if want := snap.Key(e.SettingID, e.SourceID, e.TargetID, e.Kind); key != want {
		return fmt.Errorf("snapshot key %s does not hash its identity (want %s)", key, want)
	}
	var kind cacheKind
	switch e.Kind {
	case snap.KindTractable:
		kind = kindTractable
	case snap.KindGeneric:
		kind = kindGeneric
	default:
		return fmt.Errorf("unknown snapshot kind %q", e.Kind)
	}
	c := s.reg.Get(e.SettingID)
	if c == nil {
		return fmt.Errorf("setting %s: %w", e.SettingID, errSettingUnregistered)
	}
	src, err := s.adoptInstance(e.SourceText, e.SourceID, "source")
	if err != nil {
		return err
	}
	tgt, err := s.adoptInstance(e.TargetText, e.TargetID, "target")
	if err != nil {
		return err
	}
	if err := src.Inst.ValidateAgainst(c.Setting.Source); err != nil {
		return fmt.Errorf("source instance: %w", err)
	}
	if err := tgt.Inst.ValidateAgainst(c.Setting.Target); err != nil {
		return fmt.Errorf("target instance: %w", err)
	}
	var value any
	var bytes int64
	switch kind {
	case kindTractable:
		value, bytes = e.Tractable, tractableBytes(e.Tractable)
	case kindGeneric:
		value, bytes = e.Generic, canonicalBytes(e.Generic)
	}
	meta := entryMeta{
		key:       cacheKey(e.SettingID, e.SourceID, e.TargetID, kind),
		settingID: e.SettingID,
		kind:      kind,
		src:       src,
		tgt:       tgt,
	}
	installed := s.cache.put(meta, value, bytes)
	if fromPeer {
		s.met.warmTransfers.Add(1)
		s.saveAsync(installed)
	}
	return nil
}

// adoptInstance re-compiles a snapshot's instance text, checks the
// content hash against the claimed ID, and registers the instance so
// solve-by-ID works immediately after a warm start. Empty instances are
// returned without registration — they have no facts to address.
func (s *Server) adoptInstance(text, claimedID, side string) (*StoredInstance, error) {
	si, err := compileInstance(text)
	if err != nil {
		return nil, fmt.Errorf("%s instance text: %w", side, err)
	}
	if si.ID != claimedID {
		return nil, fmt.Errorf("%s instance text hashes to %s, snapshot claims %s", side, si.ID, claimedID)
	}
	if si.Facts > 0 {
		si, _ = s.inst.add(si.ID, si)
	}
	return si, nil
}

// WarmFrom pulls the peer's cache listing and installs every snapshot
// this daemon can validate, returning the counts of installed and
// skipped entries. Keys already present in the local cache are not
// re-fetched. Per-entry failures (fetch, decode, validation) skip the
// entry; only the initial listing can fail the whole pull.
func (s *Server) WarmFrom(ctx context.Context, base string) (pulled, skipped int, err error) {
	cl := client.New(base)
	keys, err := cl.CacheKeys(ctx)
	if err != nil {
		return 0, 0, fmt.Errorf("listing peer cache: %w", err)
	}
	have := make(map[string]bool)
	for _, e := range s.cache.entries() {
		have[snapKeyOf(e)] = true
	}
	for _, k := range keys.Keys {
		if have[k.Key] {
			skipped++
			continue
		}
		data, ferr := cl.CacheEntry(ctx, k.Key)
		if ferr == nil {
			var e *snap.Entry
			if e, ferr = snap.Decode(data); ferr == nil {
				ferr = s.installSnapshot(k.Key, e, true)
			}
		}
		if ferr != nil {
			skipped++
			s.met.snapshotLoadErrors.Add(1)
			s.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "warm transfer rejected",
				slog.String("key", k.Key), slog.String("err", ferr.Error()))
			continue
		}
		pulled++
	}
	return pulled, skipped, nil
}

// handleCacheKeys lists the cache entries available for warm transfer.
func (s *Server) handleCacheKeys(w http.ResponseWriter, r *http.Request) {
	out := client.CacheKeysResponse{Keys: []client.CacheKeySummary{}}
	for _, e := range s.cache.entries() {
		if e.src == nil || e.tgt == nil {
			continue // not serializable; nothing to transfer
		}
		out.Keys = append(out.Keys, client.CacheKeySummary{
			Key:       snapKeyOf(e),
			SettingID: e.settingID,
			SourceID:  e.src.ID,
			TargetID:  e.tgt.ID,
			Kind:      string(e.kind),
		})
	}
	sort.Slice(out.Keys, func(i, j int) bool { return out.Keys[i].Key < out.Keys[j].Key })
	writeJSON(w, http.StatusOK, out)
}

// handleCachePush installs one pushed cache entry (cluster handoff).
// The body is the binary snapshot wire format; it is re-validated
// exactly like a warm start — checksum, key/identity hash agreement,
// instance-text hashes, schema fit — before anything is installed, so a
// push is never more trusted than a disk load. A snapshot whose setting
// is unknown here is rejected with 404, telling the pusher to register
// the setting and retry.
func (s *Server) handleCachePush(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "reading snapshot body: %v", err)
		return
	}
	e, derr := snap.Decode(data)
	if derr == nil {
		derr = s.installSnapshot(key, e, true)
	}
	if derr != nil {
		s.met.snapshotLoadErrors.Add(1)
		status, code := http.StatusUnprocessableEntity, client.CodeUnprocessable
		if errors.Is(derr, errSettingUnregistered) {
			status, code = http.StatusNotFound, client.CodeNotFound
		}
		writeErr(w, status, code, "installing pushed snapshot: %v", derr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"installed": key})
}

// handleCacheEntry serves one cache entry in the snapshot wire format.
func (s *Server) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	for _, e := range s.cache.entries() {
		if snapKeyOf(e) != key {
			continue
		}
		se := snapEntry(e)
		if se == nil {
			break
		}
		data, err := snap.Encode(se)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, client.CodeInternal, "encoding snapshot: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
		return
	}
	writeErr(w, http.StatusNotFound, client.CodeNotFound, "no cache entry with key %q", key)
}
