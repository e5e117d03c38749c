package main

import "testing"

// TestDenseProgramsVaryWithSeed: filler-free programs draw nothing from
// the generator's seed, so the benchmark's seed must still change them
// (through the plant order) while keeping the same shapes and size.
func TestDenseProgramsVaryWithSeed(t *testing.T) {
	byName := func(seed int64) map[string]program {
		ps, err := densePrograms(seed)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]program{}
		for _, p := range ps {
			out[p.name] = p
		}
		return out
	}
	a, b := byName(1), byName(2)
	if len(a) != len(denseShapes)*2 || len(b) != len(a) {
		t.Fatalf("%d and %d programs, want %d", len(a), len(b), len(denseShapes)*2)
	}
	differ := 0
	for name, pa := range a {
		pb, ok := b[name]
		if !ok {
			t.Fatalf("%s missing under another seed", name)
		}
		if pa.lines != pb.lines {
			t.Errorf("%s: %d lines under one seed, %d under another", name, pa.lines, pb.lines)
		}
		for path, src := range pa.sources {
			if pb.sources[path] != src {
				differ++
				break
			}
		}
	}
	if differ == 0 {
		t.Errorf("two seeds built the same dense programs")
	}
}
