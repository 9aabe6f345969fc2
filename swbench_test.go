package swbench_test

// Public-API tests: everything a downstream user does goes through the
// root package, exactly as the examples do.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	swbench "repro"
)

func quickCfg(name string, scn swbench.ScenarioKind) swbench.Config {
	return swbench.Config{
		Switch:   name,
		Scenario: scn,
		Duration: 2 * swbench.Millisecond,
		Warmup:   swbench.Millisecond,
	}
}

func TestPublicRun(t *testing.T) {
	res, err := swbench.Run(quickCfg("vpp", swbench.P2P))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gbps < 9 {
		t.Fatalf("gbps = %.2f", res.Gbps)
	}
	var b bytes.Buffer
	swbench.RenderResult(&b, res)
	if !strings.Contains(b.String(), "VPP") {
		t.Fatalf("render: %q", b.String())
	}
}

func TestPublicSwitchesAndInfo(t *testing.T) {
	names := swbench.Switches()
	if len(names) != 7 {
		t.Fatalf("switches = %v", names)
	}
	for _, n := range names {
		info, err := swbench.Info(n)
		if err != nil {
			t.Fatal(err)
		}
		if info.Display == "" {
			t.Errorf("%s: empty display name", n)
		}
	}
	if _, err := swbench.Info("cisco9000"); err == nil {
		t.Fatal("unknown switch resolved")
	}
}

func TestPublicLatencyMethodology(t *testing.T) {
	cfg := quickCfg("bess", swbench.P2P)
	rp, err := swbench.EstimateRPlus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rp < 14e6 {
		t.Fatalf("R+ = %.1f Mpps", rp/1e6)
	}
	pt, err := swbench.MeasureLatencyAt(cfg, rp, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Summary.N == 0 || pt.Summary.MeanUs <= 0 {
		t.Fatalf("latency = %+v", pt.Summary)
	}
	pts, err := swbench.LatencyProfile(cfg, []float64{0.1, 0.5})
	if err != nil || len(pts) != 2 {
		t.Fatalf("profile = %v, %v", pts, err)
	}
}

func TestPublicNDR(t *testing.T) {
	res, err := swbench.FindNDR(quickCfg("bess", swbench.P2P), swbench.NDROptions{
		LossTolerance: 2, MaxTrials: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PPS <= 0 || len(res.Trials) == 0 {
		t.Fatalf("ndr = %+v", res)
	}
}

func TestPublicChainCapError(t *testing.T) {
	_, err := swbench.Run(quickCfg("bess", swbench.Loopback))
	if err != nil {
		t.Fatalf("1-VNF failed: %v", err)
	}
	cfg := quickCfg("bess", swbench.Loopback)
	cfg.Chain = 5
	_, err = swbench.Run(cfg)
	if !errors.Is(err, swbench.ErrChainTooLong) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicRateForPPS(t *testing.T) {
	r := swbench.RateForPPS(14_880_952.38, 64)
	if r < swbench.TenGigE-swbench.Gbps/1000 || r > swbench.TenGigE+swbench.Gbps/1000 {
		t.Fatalf("rate = %d", r)
	}
}

// TestPublicRegisterCustomSwitch mirrors examples/customswitch through the
// exported registration path.
func TestPublicRegisterCustomSwitch(t *testing.T) {
	info := swbench.SwitchInfo{
		Name: "test-wire", Display: "TestWire", Version: "v0",
		SelfContained: true, Paradigm: "structured", ProcessingModel: "RTC",
		VirtualIface: "vhost-user", Reprogrammability: "low",
		Languages: "Go", MainPurpose: "test",
		IOMode: swbench.PollMode,
	}
	swbench.Register(info, func(env swbench.Env) swbench.Switch {
		return &wireSwitch{peer: map[int]int{}}
	})
	res, err := swbench.Run(quickCfg("test-wire", swbench.P2P))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gbps < 9.9 {
		t.Fatalf("custom switch = %.2f Gbps", res.Gbps)
	}
}

type wireSwitch struct {
	swbench.NoRuntimeRules
	swbench.SwitchCounters

	ports []swbench.DevPort
	peer  map[int]int
}

func (s *wireSwitch) Info() swbench.SwitchInfo {
	return swbench.SwitchInfo{Name: "test-wire", Display: "TestWire", IOMode: swbench.PollMode}
}

func (s *wireSwitch) AddPort(p swbench.DevPort) int {
	s.ports = append(s.ports, p)
	return len(s.ports) - 1
}

func (s *wireSwitch) CrossConnect(a, b int) error {
	s.peer[a], s.peer[b] = b, a
	return nil
}

func (s *wireSwitch) Poll(now swbench.Time, m *swbench.Meter) bool {
	var buf [32]*swbench.Buf
	did := false
	for i, p := range s.ports {
		dst, ok := s.peer[i]
		if !ok {
			continue
		}
		n := p.RxBurst(now, m, buf[:])
		if n == 0 {
			continue
		}
		did = true
		m.Charge(32) // nearly free
		s.ports[dst].TxBurst(now, m, buf[:n])
	}
	return did
}

func TestPublicTables(t *testing.T) {
	var b bytes.Buffer
	swbench.RenderTable1(&b)
	swbench.RenderTable2(&b)
	swbench.RenderTable5(&b)
	out := b.String()
	for _, want := range []string{"VPP", "4096", "OpenFlow"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q", want)
		}
	}
}
