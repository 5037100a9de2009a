//go:build !ibrdebug

package guard

// debugState is empty in normal builds: the bracket-liveness check
// compiles away entirely.
type debugState struct{}

func (debugState) enter() {}
func (debugState) exit()  {}
func (debugState) check() {}

// newGuards builds one Guard per tid. A Guard carries no per-bracket state
// in normal builds, so Do hands out the same one every time and a bracket
// allocates nothing (a fresh Guard would escape through fn).
func newGuards[T any](w *Guarded[T], threads int) []Guard[T] {
	gs := make([]Guard[T], threads)
	for tid := range gs {
		gs[tid] = Guard[T]{w: w, tid: tid}
	}
	return gs
}

// open returns tid's Guard for a new bracket.
func (w *Guarded[T]) open(tid int) *Guard[T] { return &w.guards[tid] }
