//go:build ibrdebug

package guard

// debugState tracks whether the Guard's bracket is still open. A Guard
// leaked out of its Do closure and used after EndOp would race reclamation
// nondeterministically; under ibrdebug it panics at the touch point.
type debugState struct{ active bool }

func (d *debugState) enter() { d.active = true }
func (d *debugState) exit()  { d.active = false }

func (d *debugState) check() {
	if !d.active {
		panic("guard: Guard used outside its Do bracket (the reservation is gone)")
	}
}

// newGuards builds nothing under ibrdebug: every bracket gets a fresh
// Guard (see open).
func newGuards[T any](*Guarded[T], int) []Guard[T] { return nil }

// open returns a fresh Guard for each bracket, so a Guard kept from an
// earlier bracket stays inactive even while a later bracket on the same
// tid is open, and its next touch panics.
func (w *Guarded[T]) open(tid int) *Guard[T] { return &Guard[T]{w: w, tid: tid} }
