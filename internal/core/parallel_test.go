package core

import "testing"

// TestParallelForPanicReachesCaller: a panic in one shard must be
// re-raised on the calling goroutine, so the caller's recover turns it
// into an error instead of the process dying.
func TestParallelForPanicReachesCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "shard 5" {
			t.Fatalf("recovered %v, want the shard's panic value", r)
		}
	}()
	parallelFor(2, 8, func(i int) {
		if i == 5 {
			panic("shard 5")
		}
	})
	t.Fatal("parallelFor returned normally after a shard panicked")
}
