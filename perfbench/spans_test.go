package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Two concurrent children overlapping on [30,50): together they
		// cover [10,60), 50 units, not 40+30.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A child sticking out of its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is subtracted from its own parent, not from op.
		{ID: 5, Parent: 2, Name: "d", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 100 - 50 - 10, 2: 40 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeOfChildCoveringParentIsZero(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "x", Start: 0, End: 6},
		{ID: 3, Parent: 1, Name: "y", Start: 4, End: 10},
	}
	if got := selfTimes(spans)[1]; got != 0 {
		t.Errorf("self time = %d, want 0", got)
	}
}

func TestLayerSelfTotalsRootSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op:analyze", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "phase:parse", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "phase:lower", Start: 30, End: 80},
		{ID: 4, Name: "op:analyze", Start: 200, End: 250},
		{ID: 5, Parent: 4, Name: "phase:pointer", Start: 200, End: 240},
		{ID: 6, Parent: 5, Name: "pointer.solve", Start: 210, End: 230},
	}
	self, total := layerSelf(spans)
	if total != 150 {
		t.Errorf("total = %d, want 150", total)
	}
	want := map[string]time.Duration{"client": 30, "cminor.parse": 30, "ir.lower": 50, "pointer": 40}
	for k, w := range want {
		if self[k] != w {
			t.Errorf("self[%s] = %d, want %d", k, self[k], w)
		}
	}
}
