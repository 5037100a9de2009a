package guard_test

import (
	"testing"

	"ibr/internal/allocgate"
	"ibr/internal/core"
	"ibr/internal/guard"
	"ibr/internal/mem"
)

type node struct {
	val  uint64
	next core.Ptr
}

func newGuarded(t *testing.T, scheme string) *guard.Guarded[node] {
	t.Helper()
	pool := mem.New[node](mem.Options[node]{Threads: 2})
	s, err := core.New(scheme, pool, core.Options{Threads: 2})
	if err != nil {
		t.Fatalf("core.New(%q): %v", scheme, err)
	}
	return guard.New(s, pool)
}

// TestGuardLifecycle drives a full allocate→publish→load→swap→retire cycle
// through the facade, for a representative scheme of each read-protection
// style (epochs, hazard pointers, intervals).
func TestGuardLifecycle(t *testing.T) {
	for _, scheme := range []string{"ebr", "hp", "2geibr", "tagibr"} {
		t.Run(scheme, func(t *testing.T) {
			w := newGuarded(t, scheme)
			var root core.Ptr

			w.Do(0, func(g *guard.Guard[node]) {
				if g.Tid() != 0 {
					t.Fatalf("Tid = %d, want 0", g.Tid())
				}
				h := g.Alloc()
				if h.IsNil() {
					t.Fatal("Alloc returned nil handle")
				}
				g.Deref(h).val = 41
				g.Publish(&root, h)
			})

			// A second bracket re-reads the published node and swaps it.
			w.Do(1, func(g *guard.Guard[node]) {
				h := g.LoadRoot(0, &root)
				if h.IsNil() {
					t.Fatal("LoadRoot lost the published handle")
				}
				if v := g.Deref(h).val; v != 41 {
					t.Fatalf("Deref val = %d, want 41", v)
				}
				repl := g.Alloc()
				g.Deref(repl).val = 42
				if !g.CompareAndSwap(&root, h, repl) {
					t.Fatal("CompareAndSwap failed with no contention")
				}
				g.Retire(h)

				// Load through the generic slot path too.
				h2 := g.Load(1, &root)
				if v := g.Deref(h2).val; v != 42 {
					t.Fatalf("after swap, val = %d, want 42", v)
				}
			})

			// Failed-insert shape: a never-published block goes back via
			// Discard, and Restart renews the reservation mid-bracket.
			w.Do(0, func(g *guard.Guard[node]) {
				spare := g.Alloc()
				g.Discard(spare)
				g.Restart()
				if h := g.Load(0, &root); g.Deref(h).val != 42 {
					t.Fatal("value lost across Restart")
				}
			})

			if w.Scheme() == nil || w.Pool() == nil {
				t.Fatal("Scheme/Pool accessors returned nil")
			}
			if got := w.Pool().Stats().Allocs; got != 3 {
				t.Fatalf("pool saw %d allocs, want 3", got)
			}
		})
	}
}

// TestGuardDoBracket checks that Do closes the reservation even when fn
// panics: EndOp runs via defer, so a later bracket on the same tid starts
// clean instead of deadlocking a reservation-counting scheme.
func TestGuardDoBracket(t *testing.T) {
	w := newGuarded(t, "2geibr")
	func() {
		defer func() { _ = recover() }()
		w.Do(0, func(g *guard.Guard[node]) { panic("boom") })
	}()
	// If EndOp was skipped, this second bracket would nest StartOp calls;
	// schemes with per-thread active flags would be corrupted. It must run
	// normally.
	w.Do(0, func(g *guard.Guard[node]) {
		h := g.Alloc()
		g.Discard(h)
	})
}

// TestGuardDoAllocs gates a reservation bracket at zero heap allocations:
// Do hands fn the tid's reused Guard, so neither it nor fn escapes.
func TestGuardDoAllocs(t *testing.T) {
	w := newGuarded(t, "tagibr")
	var root core.Ptr
	w.Do(0, func(g *guard.Guard[node]) {
		h := g.Alloc()
		g.Deref(h).val = 7
		g.Publish(&root, h)
	})
	allocgate.Check(t, 0, func() {
		w.Do(1, func(g *guard.Guard[node]) {
			if g.Deref(g.LoadRoot(0, &root)).val != 7 {
				t.Fatal("published node lost")
			}
		})
	})
}
