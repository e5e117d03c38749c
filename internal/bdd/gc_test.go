package bdd

import (
	"math/rand"
	"testing"
)

// evalNode evaluates n under the assignment bits (bit v is the value
// of variable v).
func evalNode(m *Manager, n Node, bits int) bool {
	for n != False && n != True {
		nd := m.nodes[n]
		if bits>>uint(nd.level)&1 == 1 {
			n = nd.high
		} else {
			n = nd.low
		}
	}
	return n == True
}

// truthTable extracts n's function over numVars variables.
func truthTable(m *Manager, n Node, numVars int) []bool {
	tt := make([]bool, 1<<numVars)
	for bits := range tt {
		tt[bits] = evalNode(m, n, bits)
	}
	return tt
}

// checkIntegrity verifies every kernel invariant the sweep must
// preserve: reduced unique nodes, strictly
// increasing levels, no references into freed slots, an exact
// freelist, and every live node findable on its hash chain.
func checkIntegrity(t *testing.T, m *Manager) {
	t.Helper()
	type triple struct {
		level     int32
		low, high Node
	}
	seen := make(map[triple]Node)
	freeSlots := 0
	for i := Node(2); i < Node(m.free); i++ {
		nd := m.nodes[i]
		if nd.level == freeLevel {
			freeSlots++
			continue
		}
		if nd.low == nd.high {
			t.Fatalf("node %d not reduced", i)
		}
		for _, c := range []Node{nd.low, nd.high} {
			if c < 2 {
				continue
			}
			cl := m.nodes[c].level
			if cl == freeLevel {
				t.Fatalf("node %d references freed slot %d", i, c)
			}
			if cl <= nd.level {
				t.Fatalf("node %d at level %d has child %d at level %d", i, nd.level, c, cl)
			}
		}
		k := triple{nd.level, nd.low, nd.high}
		if prev, dup := seen[k]; dup {
			t.Fatalf("nodes %d and %d share triple %+v", prev, i, k)
		}
		seen[k] = i
		found := false
		for j := m.nodes[hash3(nd.level, nd.low, nd.high)&m.mask].hash; j != 0; j = m.nodes[j].next {
			if j == int32(i) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("node %d missing from its hash chain", i)
		}
	}
	if freeSlots != int(m.freeNodes) {
		t.Fatalf("free slots %d != freeNodes %d", freeSlots, m.freeNodes)
	}
	chain := 0
	for f := m.freelist; f != 0; f = m.nodes[f].low {
		chain++
	}
	if chain != int(m.freeNodes) {
		t.Fatalf("freelist length %d != freeNodes %d", chain, m.freeNodes)
	}
}

// TestCollectFreesUnpinned builds garbage around one pinned function
// and checks that a sweep frees the garbage, keeps the pinned function
// intact, and that later allocation reuses the freelist instead of
// growing the table.
func TestCollectFreesUnpinned(t *testing.T) {
	const numVars = 10
	m := New()
	m.AddVars(numVars)
	rng := rand.New(rand.NewSource(1))

	f := False
	for k := 0; k < 6; k++ {
		cube := True
		for v := 0; v < numVars; v++ {
			switch rng.Intn(3) {
			case 0:
				cube = m.And(cube, m.Var(v))
			case 1:
				cube = m.And(cube, m.NVar(v))
			}
		}
		f = m.Or(f, cube)
	}
	m.Ref(f)
	want := truthTable(m, f, numVars)

	// Garbage: functions no one holds.
	for k := 0; k < 200; k++ {
		g := m.Xor(m.Var(rng.Intn(numVars)), m.Var(rng.Intn(numVars)))
		g = m.Or(g, m.And(m.Var(rng.Intn(numVars)), m.NVar(rng.Intn(numVars))))
		_ = g
	}
	before := m.NumNodes()
	freed := m.Collect()
	after := m.NumNodes()
	if freed == 0 || after >= before {
		t.Fatalf("Collect freed %d nodes (%d -> %d), want a reduction", freed, before, after)
	}
	checkIntegrity(t, m)
	for bits := range want {
		if evalNode(m, f, bits) != want[bits] {
			t.Fatalf("pinned function changed at assignment %b", bits)
		}
	}

	// New work must reuse swept slots before the table grows.
	growsBefore := m.Stats().Grows
	for k := 0; k < 50; k++ {
		m.And(m.Var(rng.Intn(numVars)), m.Var(rng.Intn(numVars)))
	}
	if g := m.Stats().Grows; g != growsBefore {
		t.Fatalf("allocation after Collect grew the table (%d -> %d grows) despite %d free slots", growsBefore, g, freed)
	}

	m.Deref(f)
	if got := m.Collect(); got == 0 {
		t.Fatal("Collect after releasing the last pin freed nothing")
	}
	if live := m.NumNodes(); live != 2 {
		t.Fatalf("fully released manager holds %d live nodes, want 2 terminals", live)
	}
	checkIntegrity(t, m)
}

func TestDerefUnpinnedPanics(t *testing.T) {
	m := New()
	m.AddVars(2)
	n := m.And(m.Var(0), m.Var(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Deref of unpinned node did not panic")
		}
	}()
	m.Deref(n)
}

// TestGCPressure checks the trigger chain: growth under Config.GC
// raises pressure, MaybeCollect answers it, and the flag clears.
func TestGCPressure(t *testing.T) {
	m := NewWith(Config{NodeSize: 1, GC: true, GCThreshold: 1})
	const numVars = 14
	m.AddVars(numVars)
	if m.GCPressure() {
		t.Fatal("fresh manager reports pressure")
	}
	rng := rand.New(rand.NewSource(2))
	keep := m.Ref(m.And(m.Var(0), m.Var(1)))
	for k := 0; m.Stats().Grows == 0 && k < 10000; k++ {
		cube := True
		for v := 0; v < numVars; v++ {
			if rng.Intn(2) == 0 {
				cube = m.And(cube, m.Var(v))
			} else {
				cube = m.And(cube, m.NVar(v))
			}
		}
		_ = cube
	}
	if m.Stats().Grows == 0 {
		t.Fatal("workload never grew the table")
	}
	if !m.GCPressure() {
		t.Fatal("growth did not raise GC pressure")
	}
	if !m.MaybeCollect() {
		t.Fatal("MaybeCollect declined under pressure")
	}
	if m.GCPressure() {
		t.Fatal("pressure not cleared by collection")
	}
	st := m.Stats()
	if st.Collections != 1 || st.NodesFreed == 0 || st.PeakNodes == 0 {
		t.Fatalf("stats after collection: %+v", st)
	}
	if keep != m.And(m.Var(0), m.Var(1)) {
		t.Fatal("pinned node lost identity across collection")
	}
	checkIntegrity(t, m)
}
