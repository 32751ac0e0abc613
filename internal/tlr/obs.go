package tlr

import "repro/internal/obs"

// Stage metrics for the three-phase TLR-MVM hot path (§5, Figs. 5–7) and
// the compression front end. Registered once at package init; every
// recording site is guarded inside obs, so the paths cost one atomic
// load each when collection is disabled.
var (
	obsCompress = obs.NewTimer("tlr.compress")
	obsMVM      = obs.NewTimer("tlr.mvm")
	obsMVMMeter = obs.NewMeter("tlr.mvm")
	obsPhase1   = obs.NewTimer("tlr.mvm.phase1")
	obsPhase3   = obs.NewTimer("tlr.mvm.phase3")
	obsAdjoint  = obs.NewTimer("tlr.mvm_adjoint")
	obsAdjMeter = obs.NewMeter("tlr.mvm_adjoint")
	obsSoABuild = obs.NewTimer("tlr.soa.build")
)

// FlopCount returns the floating-point operations of one forward (or
// adjoint) TLR-MVM: each tile contributes k·(rows+cols) complex MACs and
// a complex MAC is 8 real flops — the flop convention behind the paper's
// PFlop/s figures (§6.6).
func (t *Matrix) FlopCount() int64 {
	var macs int64
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			macs += int64(t.rankAt(i*t.NT+j)) * int64(t.tileRows(i)+t.tileCols(j))
		}
	}
	return 8 * macs
}

// ByteCount returns the "relative" memory traffic of one TLR-MVM in the
// §6.6 sense: every base read once, x read once, the yv intermediate
// written and re-read, and y written once (8 bytes per complex64).
func (t *Matrix) ByteCount() int64 {
	return t.CompressedBytes() + 8*int64(t.N+t.M+2*t.TotalRank())
}

// meterMVM publishes one product's work volume; the flop/byte walks over
// the tile grid only run while collection is on.
func meterMVM(m *obs.Meter, t *Matrix) {
	if obs.Enabled() {
		m.Add(t.FlopCount(), t.ByteCount())
	}
}
