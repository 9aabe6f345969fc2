package core

import "repro/internal/units"

// guestPathGoldens pins full Result JSON digests for the
// virtio/vhost data-plane scenarios (p2v, v2v, loopback) across the
// switches that exercise every guest-side actor: the vhost burst
// crossings, the guest generator and l2fwd VNF, the ptnet path, and the
// notify-delay visibility gate. These are the guest-path counterpart of
// the p2p-grid table: any change to the fast path that shifts a
// charged cycle, a timestamp, or a drop shows up here as a digest
// mismatch. Re-pin only with an argued equivalence (see DESIGN.md §3.3).
// TestPinnedGoldens runs the table.
func guestPathGoldens() []goldenCell {
	return []goldenCell{
		{Config{Switch: "vpp", Scenario: P2V, FrameLen: 64}, "ea7585bb3974810c0ae06cc1ff2b27f8"},
		{Config{Switch: "snabb", Scenario: P2V, FrameLen: 1024, Bidir: true}, "bae4f3dea8501b04da08c71ff660852a"},
		{Config{Switch: "vpp", Scenario: V2V, FrameLen: 64}, "ed5442a6088be0e4cb4809d01ad69672"},
		{Config{Switch: "ovs", Scenario: V2V, FrameLen: 256, Bidir: true}, "42b9e89fe1a5bd54bdefc75ec7d9a04f"},
		{Config{Switch: "vale", Scenario: V2V, FrameLen: 64}, "ce79e22a6277bde7ac09fb0e94ee4f8e"},
		{Config{Switch: "vpp", Scenario: Loopback, Chain: 4, FrameLen: 64}, "e7979e2b67320861df5ae5c5c5e14aaa"},
		{Config{Switch: "vale", Scenario: Loopback, Chain: 2, FrameLen: 64}, "d4e10b4b84738c3f85352573647de49f"},
		{Config{Switch: "vpp", Scenario: V2V, FrameLen: 64, LatencyTopology: true, Rate: units.Gbps, ProbeEvery: 20 * units.Microsecond}, "57050451eebd1ea9d1980e92fbe01124"},
	}
}
