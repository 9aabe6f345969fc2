package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pcap"
	"repro/internal/pkt"
	"repro/internal/units"
)

func TestCaptureWritesReadablePcap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p2p.pcap")
	res, err := Run(Config{
		Switch: "vpp", Scenario: P2P,
		Rate:        units.Gbps,
		Duration:    units.Millisecond,
		Warmup:      units.Millisecond,
		CapturePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := pcap.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	// Warmup + window traffic, all 64B Ethernet frames parseable.
	if int64(len(recs)) < res.Dirs[0].RxPackets {
		t.Fatalf("captured %d < delivered %d", len(recs), res.Dirs[0].RxPackets)
	}
	for _, r := range recs[:10] {
		if len(r.Data) != 64 {
			t.Fatalf("frame length %d", len(r.Data))
		}
		if _, err := pkt.ParseEth(r.Data); err != nil {
			t.Fatalf("unparseable frame: %v", err)
		}
	}
}

func TestCaptureV2VUsesGuestMonitor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2v.pcap")
	_, err := Run(Config{
		Switch: "ovs", Scenario: V2V,
		Rate:        units.Gbps,
		Duration:    units.Millisecond,
		Warmup:      units.Millisecond,
		CapturePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := pcap.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty capture")
	}
}

// TestCaptureBytesPinned pins the exact bytes `run -pcap` writes for cells
// whose captures carry latency probes, stamp payloads included: hardware
// stamps on p2p, probes that crossed an l2fwd VNF on loopback-1, and
// software stamps from a guest generator on v2v. How a probe's stamp is
// held in memory is the buffer layer's business; the file must not show
// it.
func TestCaptureBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     Config
		swStamp bool // the payload carries the TX time, not 0
		want    string
	}{
		{"p2p-hw-stamps", Config{Switch: "ovs", Scenario: P2P}, false,
			"87f20d8b5d3354928c970f2227cb935b5c3132ef5c8930645524bf1bed1a5154"},
		{"loopback1-l2fwd", Config{Switch: "vpp", Scenario: Loopback, Chain: 1}, false,
			"dc88ba713e2ec4421938d2d4e8486c3eeb4652b2f3e1707f6812834791bb6143"},
		{"v2v-sw-stamps", Config{Switch: "vale", Scenario: V2V, LatencyTopology: true}, true,
			"f45e37fff2b2f90abff2265869b39c0781f2cf8a14195b1050fe9f998ed68f1f"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), c.name+".pcap")
			cfg := c.cfg
			cfg.Rate = units.Gbps
			cfg.ProbeEvery = 20 * units.Microsecond
			cfg.Duration = units.Millisecond
			cfg.Warmup = units.Millisecond
			cfg.CapturePath = path
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := pcap.Read(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			probes := 0
			for _, r := range recs {
				if _, tx, ok := pkt.ProbeInfo(r.Data); ok {
					probes++
					if (tx != 0) != c.swStamp {
						t.Fatalf("probe at %v carries TX field %v", r.At, tx)
					}
				}
			}
			if probes == 0 {
				t.Fatalf("%d captured frames, none a probe", len(recs))
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.want {
				t.Errorf("capture of %d frames (%d probes) has SHA-256 %s, want %s", len(recs), probes, got, c.want)
			}
		})
	}
}
