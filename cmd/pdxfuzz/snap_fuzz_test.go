package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/snap"
	"repro/internal/workload"
	"repro/pde"
)

// lavPersons is the size of the LAV seed.
const lavPersons = 8

// seedSnapshots builds valid snapshot encodings covering both artifact
// kinds, so the fuzzer starts from deep inside the format instead of
// spending its budget rediscovering the magic and checksum.
func seedSnapshots(f *testing.F) [][]byte {
	f.Helper()
	rng := rand.New(rand.NewSource(7))
	var seeds [][]byte

	li, lj := workload.LAVInstance(lavPersons, true, rng)
	trace, err := core.ChaseCanonicalTractable(workload.LAVSetting(), li, lj, core.TractableOptions{})
	if err != nil {
		f.Fatalf("lav trace: %v", err)
	}
	data, err := snap.Encode(&snap.Entry{
		SettingID: "sha256:s", SourceID: "sha256:i", TargetID: "sha256:j",
		Kind:       snap.KindTractable,
		SourceText: pde.FormatInstance(li), TargetText: pde.FormatInstance(lj),
		Tractable: trace,
	})
	if err != nil {
		f.Fatalf("encode tractable: %v", err)
	}
	seeds = append(seeds, data)

	ki, kj := workload.KeyedLAVInstance(12)
	ct, err := core.ChaseCanonicalTarget(workload.KeyedLAVSetting(), ki, kj, core.SolveOptions{})
	if err != nil {
		f.Fatalf("keyed canonical target: %v", err)
	}
	data, err = snap.Encode(&snap.Entry{
		SettingID: "sha256:s", SourceID: "sha256:k", TargetID: "sha256:l",
		Kind:       snap.KindGeneric,
		SourceText: pde.FormatInstance(ki), TargetText: pde.FormatInstance(kj),
		Generic: ct,
	})
	if err != nil {
		f.Fatalf("encode generic: %v", err)
	}
	seeds = append(seeds, data)
	return seeds
}

// divergedCopy changes one value of the second stored copy of the LAV
// seed's Person relation (the Σst start's, which repeats the Σst
// fixpoint's) and recomputes the checksum. The copy's header still
// matches the first one, so the decoder must refuse to share the
// relation it already built and decode the copy from its own bytes.
func divergedCopy(f *testing.F, data []byte, persons int) []byte {
	f.Helper()
	hdr := binary.AppendUvarint(nil, uint64(len("Person")))
	hdr = append(hdr, "Person"...)
	hdr = binary.AppendUvarint(hdr, 2)
	hdr = binary.AppendUvarint(hdr, uint64(persons))
	body := append([]byte(nil), data[:len(data)-sha256.Size]...)
	at := bytes.Index(body, hdr) + len(hdr)
	next := bytes.Index(body[at:], hdr)
	if at < len(hdr) || next < 0 {
		f.Fatal("the LAV seed stores Person fewer than twice")
	}
	// The copy's first value is a constant: tag, length, then text.
	body[at+next+len(hdr)+2] ^= 1
	mut := snap.AppendChecksum(body)
	if _, err := snap.Decode(mut); err != nil {
		f.Fatalf("diverged copy does not decode: %v", err)
	}
	return mut
}

// FuzzSnapshotDecode pins the codec's two load-bearing guarantees on
// arbitrary input: Decode never panics, and anything it accepts
// re-encodes byte-identically (the canonical-form invariant the peer
// warm-transfer protocol relies on).
func FuzzSnapshotDecode(f *testing.F) {
	seeds := seedSnapshots(f)
	for _, seed := range seeds {
		f.Add(seed)
		// Truncations and a bit flip steer the corpus toward the
		// validation branches.
		f.Add(seed[:len(seed)/2])
		mut := append([]byte(nil), seed...)
		mut[len(mut)/3] ^= 1
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("\x89PDXSNAP"))
	f.Add(divergedCopy(f, seeds[0], lavPersons))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := snap.Decode(data)
		if err != nil {
			return
		}
		again, err := snap.Encode(e)
		if err != nil {
			t.Fatalf("decoded entry does not re-encode: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("accepted input is not canonical: %d bytes in, %d bytes out", len(data), len(again))
		}
	})
}
