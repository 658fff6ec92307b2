package query

// MinVectorsIndex is the optional capability interface for access paths
// whose index can state the Theorem 2.2/2.3 theoretical minimum bitmap
// vectors any encoding could read for a selection of a given width. The
// planner uses it to annotate leaves (and captured slow queries) with
// their excess-access count — actual vectors read minus that floor — so
// "slow because mis-encoded" is distinguishable from "slow because
// big". Only the encoded-bitmap family implements it; other access
// methods have no encoding to decay.
type MinVectorsIndex interface {
	TheoreticalMinVectors(delta int) int
}

// leafExcess returns the leaf's excess vector reads over the
// theoretical minimum for its selection width, or 0 when the path's
// index has no such floor. delta is the planner's selection width; for
// range leaves it is the value-interval width, an upper bound on the
// mapped δ, which can only understate the excess.
func leafExcess(ix ColumnIndex, delta, vectorsRead int) int {
	mv, ok := ix.(MinVectorsIndex)
	if !ok {
		return 0
	}
	if ex := vectorsRead - mv.TheoreticalMinVectors(delta); ex > 0 {
		return ex
	}
	return 0
}
