package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/pde"
)

// StoredInstance is a registered instance: parsed once, canonicalized,
// frozen, and stored under a content hash of its canonical text, so the
// same set of facts always lands on the same ID and appends that add
// nothing are free no-ops. Everything in it is immutable after
// registration.
type StoredInstance struct {
	// ID is "sha256:" plus the hex digest of the canonical text.
	ID string
	// Text is the canonical text (pde.FormatInstance output).
	Text string
	// Inst is the frozen instance handed to solves. Shared; never
	// mutated.
	Inst *pde.Instance
	// Facts is the number of facts.
	Facts int
	// Parent is the ID of the instance this one was appended from, or
	// empty for directly registered instances.
	Parent string
}

// idChunk is the size of the buffer instanceID streams a text through.
const idChunk = 1024

// instanceID hashes canonical instance text to a registry/cache ID. The
// text goes through the hash one fixed-size chunk at a time: sha256's
// digest has no WriteString, so []byte(text) or io.WriteString would
// copy the whole text, about 100 KB for a LAV(1600) instance.
func instanceID(text string) string {
	h := sha256.New()
	var buf [idChunk]byte
	for len(text) > 0 {
		n := copy(buf[:], text)
		h.Write(buf[:n])
		text = text[n:]
	}
	var sum [sha256.Size]byte
	return "sha256:" + hex.EncodeToString(h.Sum(sum[:0]))
}

// compileInstance parses and canonicalizes instance text.
func compileInstance(src string) (*StoredInstance, error) {
	inst, err := pde.ParseInstance(src)
	if err != nil {
		return nil, err
	}
	return freezeInstance(inst, ""), nil
}

// freezeInstance canonicalizes and freezes an already-built instance.
func freezeInstance(inst *pde.Instance, parent string) *StoredInstance {
	text := pde.FormatInstance(inst)
	inst.Freeze()
	return &StoredInstance{
		ID:     instanceID(text),
		Text:   text,
		Inst:   inst,
		Facts:  inst.NumFacts(),
		Parent: parent,
	}
}

// emptyInstance is the side a request leaves out, built once: every
// warm-read target would otherwise re-parse, format and hash "".
var emptyInstance = freezeInstance(pde.NewInstance(), "")

// InstanceRegistry is the concurrent content-addressed instance store,
// the mirror of Registry for data rather than settings. Get, List, Evict
// and Len come from the shared store.
type InstanceRegistry struct {
	store[*StoredInstance]
}

// NewInstanceRegistry returns an empty instance registry.
func NewInstanceRegistry() *InstanceRegistry { return &InstanceRegistry{} }

// Register parses and stores instance text under its content hash.
// Idempotent: re-registering returns the existing entry, created=false.
func (r *InstanceRegistry) Register(src string) (*StoredInstance, bool, error) {
	si, err := compileInstance(src)
	if err != nil {
		return nil, false, fmt.Errorf("parsing instance: %w", err)
	}
	si, created := r.add(si.ID, si)
	return si, created, nil
}

// Append builds the instance base ∪ batch and registers it as a child
// of base. It returns the stored child (which is base itself when the
// batch adds nothing), the delta instance holding exactly the
// genuinely new facts, and whether a new registry entry was created.
// The child's canonical text is base's text with the delta's lines
// merged in, so an append formats and sorts only the batch.
func (r *InstanceRegistry) Append(base *StoredInstance, batch *pde.Instance) (*StoredInstance, *pde.Instance, bool) {
	delta := pde.NewInstance()
	union := base.Inst.Clone()
	for _, f := range batch.Facts() {
		if union.AddFact(f) {
			delta.AddFact(f)
		}
	}
	if delta.NumFacts() == 0 {
		return base, delta, false
	}
	delta.Freeze()
	union.Freeze()
	text := mergeLines(base.Text, pde.FormatInstance(delta))
	child := &StoredInstance{
		ID:     instanceID(text),
		Text:   text,
		Inst:   union,
		Facts:  base.Facts + delta.NumFacts(),
		Parent: base.ID,
	}
	child, created := r.add(child.ID, child)
	return child, delta, created
}

// mergeLines merges two canonical texts — sorted lines joined by
// newlines, "" for no lines — into the canonical text of the union of
// their lines, in one linear pass. Merging sorted line lists is sorting
// their concatenation, so when a and b format two disjoint instances
// the result is exactly FormatInstance of their union. This relies on
// no line containing a newline, which holds for every registered
// instance: ParseInstance reads one line at a time, so no constant it
// produces contains one.
func mergeLines(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	var out strings.Builder
	out.Grow(len(a) + 1 + len(b))
	// la and lb are the first lines of the unmerged rests a and b.
	la, ra, moreA := strings.Cut(a, "\n")
	lb, rb, moreB := strings.Cut(b, "\n")
	for {
		if la <= lb {
			out.WriteString(la)
			out.WriteByte('\n')
			if !moreA {
				out.WriteString(b)
				return out.String()
			}
			a = ra
			la, ra, moreA = strings.Cut(a, "\n")
		} else {
			out.WriteString(lb)
			out.WriteByte('\n')
			if !moreB {
				out.WriteString(a)
				return out.String()
			}
			b = rb
			lb, rb, moreB = strings.Cut(b, "\n")
		}
	}
}
