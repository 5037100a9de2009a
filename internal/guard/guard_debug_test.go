//go:build ibrdebug

package guard_test

import (
	"testing"

	"ibr/internal/core"
	"ibr/internal/guard"
	"ibr/internal/mem"
)

// TestGuardEscapePanics proves the ibrdebug liveness check: a Guard
// retained past its Do bracket panics on the next touch point instead of
// issuing an unprotected read — both after the bracket closed and while a
// later bracket on the same tid is open (each bracket's Guard is its own).
func TestGuardEscapePanics(t *testing.T) {
	pool := mem.New[node](mem.Options[node]{Threads: 1})
	s, err := core.New("2geibr", pool, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := guard.New(s, pool)

	var leaked *guard.Guard[node]
	var root core.Ptr
	w.Do(0, func(g *guard.Guard[node]) { leaked = g })

	mustPanic := func(t *testing.T, use func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("Load on a Guard outside its Do bracket did not panic")
			}
		}()
		use()
	}
	t.Run("after bracket", func(t *testing.T) {
		mustPanic(t, func() { leaked.Load(0, &root) })
	})
	t.Run("in later bracket", func(t *testing.T) {
		w.Do(0, func(g *guard.Guard[node]) {
			if g == leaked {
				t.Fatal("a later bracket on the same tid reused the earlier bracket's Guard")
			}
			mustPanic(t, func() { leaked.Load(0, &root) })
			// The bracket's own Guard is live.
			g.Load(0, &root)
		})
	})
}
