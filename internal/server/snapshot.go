package server

// Snapshot persistence: the glue between the chase cache and the
// internal/snap store. Saves are write-behind — cache fills enqueue the
// completed entry on a bounded queue drained by one worker goroutine,
// so the solve path never waits on disk. The server remembers the
// instance IDs every stored or queued key names, and evicting an
// instance queues the removal of every file naming it on the same
// queue and drops their queued saves, so an evicted instance does not
// come back on the next warm start, even from an entry LRU eviction
// dropped earlier; LRU eviction itself keeps files. Loads happen once at
// startup (LoadSnapshots), on demand from a peer (WarmFrom), or by a
// cluster handoff push. A chase-cache entry's key is its snapshot key
// (snap.Key), so a file, a peer-transfer URL and a cache lookup name an
// entry the same way. Every loaded snapshot is re-validated before
// installation: its key must be the hash of its identity, its setting
// must already be registered, and its instances are taken from the
// artifact's own Σst start (I ∪ J), whose source and target
// restrictions must hold no constant a parsed text cannot (a quote or
// a newline), format to the stored texts, hash to the claimed instance
// IDs and fit the setting's schemas, with no fact of the start left
// outside them. An artifact chased from other facts than its IDs
// name is therefore refused, and the instances it registers share
// relations with the artifact exactly as a freshly chased entry's do. A
// snapshot failing any of these is skipped and counted in
// pdxd_snapshot_load_errors_total — never trusted.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/snap"
	"repro/pde"
	"repro/pde/client"
)

// errSettingUnregistered marks a snapshot rejected only because its
// setting is not in the local registry. A cluster peer pushing a
// handoff entry can heal this (register the setting, retry); every
// other rejection is final.
var errSettingUnregistered = errors.New("setting is not registered")

// snapQueueLen bounds the write-behind queue for saves. A save finding
// it full is dropped (with a warning, counted as queue_full in
// pdxd_snapshot_saves_dropped_total): the entry is still served from
// memory and will be re-saved if it is recomputed after a restart. A
// removal is never dropped, so removals may run the queue past the
// bound.
const snapQueueLen = 256

// snapJob is one task of the write-behind worker: save entry e's
// snapshot under key, or, with e nil, remove the snapshot stored under
// key.
type snapJob struct {
	key string
	e   *cacheEntry
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
		Kind:       e.kind,
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
	if len(s.snapJobs) >= snapQueueLen {
		s.met.snapshotDropped[dropQueueFull].Add(1)
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "snapshot queue full, dropping save",
			slog.String("key", e.key))
		return
	}
	s.snapJobs = append(s.snapJobs, snapJob{key: e.key, e: e})
	s.snapKeys[e.key] = [2]string{e.src.ID, e.tgt.ID}
	s.snapCond.Signal()
}

// dropSnapshots forgets every snapshot naming the evicted instance id:
// their queued saves are dropped (counted as evicted in
// pdxd_snapshot_saves_dropped_total) and the removal of their files is
// queued behind every job already waiting, so the one worker never
// lets a save land after its removal.
func (s *Server) dropSnapshots(id string) {
	if s.cfg.Snapshots == nil {
		return
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.snapClosed {
		return
	}
	var gone []string
	for key, ids := range s.snapKeys {
		if ids[0] == id || ids[1] == id {
			gone = append(gone, key)
			delete(s.snapKeys, key)
		}
	}
	if len(gone) == 0 {
		return
	}
	sort.Strings(gone) // removals run in key order, not map order
	queued := len(s.snapJobs)
	s.snapJobs = slices.DeleteFunc(s.snapJobs, func(j snapJob) bool {
		return j.e != nil && slices.Contains(gone, j.key)
	})
	s.met.snapshotDropped[dropEvicted].Add(int64(queued - len(s.snapJobs)))
	for _, key := range gone {
		s.snapJobs = append(s.snapJobs, snapJob{key: key})
	}
	s.snapCond.Signal()
}

// snapWorker runs the queued jobs one at a time, oldest first, until
// Close has been called and the queue is empty. Every save encodes into
// buf, which grows to the largest snapshot saved and is freed when the
// worker returns.
func (s *Server) snapWorker() {
	defer close(s.snapDone)
	var buf []byte
	for {
		s.snapMu.Lock()
		for len(s.snapJobs) == 0 && !s.snapClosed {
			s.snapCond.Wait()
		}
		if len(s.snapJobs) == 0 {
			s.snapMu.Unlock()
			return
		}
		j := s.snapJobs[0]
		s.snapJobs = slices.Delete(s.snapJobs, 0, 1)
		s.snapMu.Unlock()
		if j.e == nil {
			s.removeSnapshot(j.key)
		} else {
			buf = s.saveSnapshot(j.e, buf)
		}
	}
}

// removeSnapshot deletes the snapshot file stored under key, if any.
func (s *Server) removeSnapshot(key string) {
	if err := s.cfg.Snapshots.Remove(key); err != nil {
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "snapshot removal failed",
			slog.String("key", key), slog.String("err", err.Error()))
	}
}

// saveSnapshot encodes one entry into buf and writes it to the store.
// It returns the buffer for the next save to reuse: the store keeps no
// reference to the bytes it wrote.
func (s *Server) saveSnapshot(e *cacheEntry, buf []byte) []byte {
	se := snapEntry(e)
	if se == nil {
		return buf
	}
	data, err := snap.AppendEncode(buf[:0], se)
	if err == nil {
		err = s.cfg.Snapshots.Save(e.key, data)
	}
	if err != nil {
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "snapshot save failed",
			slog.String("key", e.key), slog.String("err", err.Error()))
		return data
	}
	s.met.snapshotSaves.Add(1)
	return data
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
		s.snapCond.Signal()
		s.snapMu.Unlock()
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
	s.snapMu.Lock()
	s.snapKeys[key] = [2]string{e.SourceID, e.TargetID}
	s.snapMu.Unlock()
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
	c := s.reg.Get(e.SettingID)
	if c == nil {
		return fmt.Errorf("setting %s: %w", e.SettingID, errSettingUnregistered)
	}
	// snap.Decode sets exactly the artifact its kind names.
	var value any
	var start *pde.Instance
	if e.Kind == snap.KindTractable {
		value, start = e.Tractable, e.Tractable.STResult.Start
	} else {
		value, start = e.Generic, e.Generic.STResult.Start
	}
	src, err := adoptInstance(start, c.Setting.Source, e.SourceText, e.SourceID, "source")
	if err != nil {
		return err
	}
	tgt, err := adoptInstance(start, c.Setting.Target, e.TargetText, e.TargetID, "target")
	if err != nil {
		return err
	}
	// The schemas are disjoint, so the restrictions split the start.
	if extra := start.NumFacts() - src.Facts - tgt.Facts; extra != 0 {
		return fmt.Errorf("Σst start holds %d facts outside the source and target instances", extra)
	}
	src, tgt = s.registerInstance(src), s.registerInstance(tgt)
	meta := entryMeta{key: key, settingID: e.SettingID, kind: e.Kind, src: src, tgt: tgt}
	installed := s.cache.put(meta, value, artifactBytes(value))
	if fromPeer {
		s.met.warmTransfers.Add(1)
		s.saveAsync(installed)
	}
	return nil
}

// adoptInstance takes one side of a snapshot's instances from the
// artifact's Σst start: the start's restriction to the side's schema,
// which shares the start's relations. The restriction must hold only
// constants a parsed text can produce, format to the stored text, hash
// to the claimed ID and fit the schema, so an artifact is installed
// only for the facts it was chased from.
func adoptInstance(start *pde.Instance, schema *pde.Schema, text, claimedID, side string) (*StoredInstance, error) {
	inst := start.Restrict(schema)
	if c, ok := unparsableConst(inst); ok {
		return nil, fmt.Errorf("%s instance of the Σst start holds the constant %q, which no instance text parses to", side, c)
	}
	si := freezeInstance(inst, "")
	if si.ID != claimedID {
		return nil, fmt.Errorf("%s instance of the Σst start hashes to %s, snapshot claims %s", side, si.ID, claimedID)
	}
	if si.Text != text {
		return nil, fmt.Errorf("%s instance of the Σst start does not format to the stored %s text", side, side)
	}
	if err := si.Inst.ValidateAgainst(schema); err != nil {
		return nil, fmt.Errorf("%s instance: %w", side, err)
	}
	return si, nil
}

// unparsableConst returns a constant of inst holding a quote or a
// newline, the two bytes ParseInstance never puts in a constant: a
// quote ends a quoted constant and a newline ends a fact. Without them
// FormatInstance is injective, so an instance that formats to a stored
// text holds exactly the facts that text parses to.
func unparsableConst(inst *pde.Instance) (string, bool) {
	for _, name := range inst.RelationNames() {
		r := inst.Relation(name)
		for i := 0; i < r.Len(); i++ {
			for _, v := range r.TupleAt(i) {
				if !v.IsNull() && strings.ContainsAny(v.ConstText(), "'\n") {
					return v.ConstText(), true
				}
			}
		}
	}
	return "", false
}

// registerInstance registers an adopted instance so solve-by-ID works
// immediately after a warm start, returning the registered copy when
// one already exists. An empty side is the shared empty instance, as in
// a request that leaves it out.
func (s *Server) registerInstance(si *StoredInstance) *StoredInstance {
	if si.Facts == 0 {
		return emptyInstance
	}
	si, _ = s.inst.add(si.ID, si)
	return si
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
	for _, k := range keys.Keys {
		if s.cache.peek(k.Key) != nil {
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
			Key:       e.key,
			SettingID: e.settingID,
			SourceID:  e.src.ID,
			TargetID:  e.tgt.ID,
			Kind:      e.kind,
		})
	}
	sort.Slice(out.Keys, func(i, j int) bool { return out.Keys[i].Key < out.Keys[j].Key })
	writeJSON(w, http.StatusOK, out)
}

// handleCachePush installs one pushed cache entry (cluster handoff).
// The body is the binary snapshot wire format; it is re-validated
// exactly like a warm start before anything is installed — checksum,
// key/identity hash agreement, and the Σst start's source and target
// restrictions formatting to the stored texts, hashing to the claimed
// IDs and fitting the schemas with no fact outside them — so a push is
// never more trusted than a disk load. A snapshot whose setting
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
	var se *snap.Entry
	if e := s.cache.peek(key); e != nil {
		se = snapEntry(e)
	}
	if se == nil {
		writeErr(w, http.StatusNotFound, client.CodeNotFound, "no cache entry with key %q", key)
		return
	}
	data, err := snap.Encode(se)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, client.CodeInternal, "encoding snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}
