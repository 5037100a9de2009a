package core

// TransferSlot copies the hazard in slot from into slot to: the node stays
// continuously protected across a role change, so no re-validation is
// needed.
func (s *HP) TransferSlot(tid, from, to int) {
	s.haz[tid][to].v.Store(s.haz[tid][from].v.Load())
}

// TransferSlot copies the era in slot from into slot to.
func (s *HE) TransferSlot(tid, from, to int) {
	s.eras[tid][to].v.Store(s.eras[tid][from].v.Load())
}

// ClearReservation clears every hazard slot of tid — EndOp on its behalf.
// Same caller obligations as the base version: tid's holder must be parked
// or dead, since a cleared hazard no longer protects a dereference.
func (s *HP) ClearReservation(tid int) { s.clearHazards(tid) }

// ClearReservation clears every era slot of tid on its behalf.
func (s *HE) ClearReservation(tid int) { s.clearEras(tid) }
