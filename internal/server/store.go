package server

import (
	"slices"
	"sync"
)

// store is the concurrent content-addressed map behind both registries
// (Registry for settings, InstanceRegistry for instances). Insertion is
// idempotent by ID, lookups are read-locked, and listings come back in
// insertion order so they are deterministic. The values are immutable
// after insertion, so callers share them without locks.
type store[V any] struct {
	mu    sync.RWMutex
	byID  map[string]V
	order []string // insertion order, for deterministic listings
}

// add stores v under id unless the ID is present. It returns the stored
// value — the existing one when the ID was already present — and
// whether v was added.
func (s *store[V]) add(id string, v V) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if have, ok := s.byID[id]; ok {
		return have, false
	}
	if s.byID == nil {
		s.byID = make(map[string]V)
	}
	s.byID[id] = v
	s.order = append(s.order, id)
	return v, true
}

// Get returns the value stored under an ID, or the zero value (nil).
func (s *store[V]) Get(id string) V {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byID[id]
}

// List returns the stored values in insertion order.
func (s *store[V]) List() []V {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]V, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.byID[id])
	}
	return out
}

// Evict removes an ID; it reports whether the ID was present. Holders
// of the evicted value are unaffected (values are immutable).
func (s *store[V]) Evict(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[id]; !ok {
		return false
	}
	delete(s.byID, id)
	s.order = slices.DeleteFunc(s.order, func(have string) bool { return have == id })
	return true
}

// Len returns the number of stored values.
func (s *store[V]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}
