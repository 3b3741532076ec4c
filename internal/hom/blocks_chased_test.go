package hom_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hom"
	"repro/internal/oracle"
	"repro/internal/rel"
)

// TestBlocksMatchReferenceOnChasedInstances compares Blocks with
// ReferenceBlocks on the instances the chase builds for random
// settings: the Σst result, J_can and, where the setting admits
// Figure 3, I_can.
func TestBlocksMatchReferenceOnChasedInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	icans := 0
	for trial := 0; trial < 60; trial++ {
		s := oracle.RandomSetting(rng)
		i, j := oracle.RandomInstance(rng)
		ct, err := core.ChaseCanonicalTarget(s, i, j, core.SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		insts := []*rel.Instance{ct.STResult.Instance, ct.JCan}
		if tr, err := core.ChaseCanonicalTractable(s, i, j, core.TractableOptions{SkipCondition1Check: true}); err == nil {
			insts = append(insts, tr.ICan)
			icans++
		}
		for _, inst := range insts {
			if inst == nil { // J_can of a failed Σt chase
				continue
			}
			if got, want := hom.Blocks(inst), hom.ReferenceBlocks(inst); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Blocks of\n%v\n= %v\nreference %v", trial, inst, got, want)
			}
		}
	}
	if icans == 0 {
		t.Fatal("no random setting admitted Figure 3")
	}
}
