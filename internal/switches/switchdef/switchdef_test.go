package switchdef_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/ptnet"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
	"repro/internal/vhost"

	_ "repro/internal/switches/bess"
	_ "repro/internal/switches/fastclick"
	_ "repro/internal/switches/ovs"
	_ "repro/internal/switches/snabb"
	_ "repro/internal/switches/t4p4s"
	_ "repro/internal/switches/vale"
	_ "repro/internal/switches/vpp"
)

func env() switchdef.Env {
	return switchdef.Env{Model: cost.Default(), RNG: sim.NewRNG(1), Pool: pkt.NewPool(2048)}
}

func TestRegistryHasAllSeven(t *testing.T) {
	want := []string{"bess", "fastclick", "ovs", "snabb", "t4p4s", "vale", "vpp"}
	got := switchdef.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v", got)
		}
	}
}

func TestNewAndLookup(t *testing.T) {
	for _, name := range switchdef.Names() {
		info, err := switchdef.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Display == "" || info.Version == "" || info.MainPurpose == "" {
			t.Errorf("%s: incomplete taxonomy %+v", name, info)
		}
		sw, err := switchdef.New(name, env())
		if err != nil {
			t.Fatal(err)
		}
		if sw == nil {
			t.Errorf("%s: factory returned nil", name)
		}
	}
	if _, err := switchdef.Lookup("cisco"); err == nil {
		t.Fatal("unknown switch looked up")
	}
	if _, err := switchdef.New("cisco", env()); err == nil {
		t.Fatal("unknown switch instantiated")
	}
}

func TestTaxonomyMatchesTable1(t *testing.T) {
	// Spot checks against the paper's Table 1.
	expect := map[string]struct {
		selfContained bool
		paradigm      string
		procModel     string
		vif           string
		reprog        string
	}{
		"bess":      {false, "structured", "RTC/pipeline", "vhost-user", "medium"},
		"snabb":     {false, "structured", "pipeline", "vhost-user", "high"},
		"ovs":       {true, "match/action", "RTC", "vhost-user", "medium"},
		"fastclick": {false, "structured", "RTC", "vhost-user", "low"},
		"vpp":       {true, "structured", "RTC", "vhost-user", "medium"},
		"vale":      {true, "structured", "RTC", "ptnet", "low"},
		"t4p4s":     {true, "match/action", "RTC", "vhost-user", "medium"},
	}
	for name, want := range expect {
		info, err := switchdef.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.SelfContained != want.selfContained || info.Paradigm != want.paradigm ||
			info.ProcessingModel != want.procModel || info.VirtualIface != want.vif ||
			info.Reprogrammability != want.reprog {
			t.Errorf("%s taxonomy: got %+v want %+v", name, info, want)
		}
	}
}

func TestPortMACDistinct(t *testing.T) {
	seen := map[pkt.MAC]bool{}
	for i := 0; i < 300; i++ {
		m := switchdef.PortMAC(i)
		if seen[m] {
			t.Fatalf("PortMAC collision at %d", i)
		}
		if m.IsMulticast() {
			t.Fatalf("PortMAC(%d) is multicast", i)
		}
		seen[m] = true
	}
}

func TestPhysPortAdapterCharges(t *testing.T) {
	a := nic.NewPort(nic.Config{Name: "a", RxLatency: nic.NoLatency, TxLatency: nic.NoLatency})
	b := nic.NewPort(nic.Config{Name: "b", RxLatency: nic.NoLatency, TxLatency: nic.NoLatency})
	nic.Connect(a, b)
	pool := pkt.NewPool(2048)
	m := cost.NewMeter(cost.Default(), nil)

	priced := &switchdef.PhysPort{Port: a}
	if n := priced.TxBurst(0, m, []*pkt.Buf{pool.Get(64)}); n != 1 {
		t.Fatal("tx failed")
	}
	if m.Pending() == 0 {
		t.Fatal("priced adapter charged nothing")
	}
	m.Drain()
	unpriced := &switchdef.PhysPort{Port: a, Unpriced: true}
	if n := unpriced.TxBurst(units.Millisecond, m, []*pkt.Buf{pool.Get(64)}); n != 1 {
		t.Fatal("tx failed")
	}
	if m.Pending() != 0 {
		t.Fatal("unpriced adapter charged cycles")
	}
	if priced.Kind() != switchdef.PhysKind {
		t.Fatal("adapter kind wrong")
	}
}

func TestVhostPortAdapterRoundTrip(t *testing.T) {
	host := pkt.NewPool(2048)
	dev := vhost.New(vhost.Config{Name: "v0"})
	port := &switchdef.VhostPort{Dev: dev}
	m := cost.NewMeter(cost.Default(), nil)

	b := host.Get(64)
	b.Seq = 7
	if port.TxBurst(0, m, []*pkt.Buf{b}) != 1 {
		t.Fatal("enqueue failed")
	}
	if dev.GuestPending() != 1 {
		t.Fatal("guest pending wrong")
	}
	// Guest echoes it back.
	var out [4]*pkt.Buf
	gm := cost.NewMeter(cost.Default(), nil)
	n := dev.GuestRecv(units.Second, gm, out[:])
	if n != 1 || out[0].Seq != 7 {
		t.Fatalf("guest recv = %d", n)
	}
	if dev.GuestSendBurst(gm, out[:1]) != 1 {
		t.Fatal("guest send failed")
	}
	var back [4]*pkt.Buf
	if port.RxBurst(units.Second, m, back[:]) != 1 || back[0].Seq != 7 {
		t.Fatal("host dequeue failed")
	}
	back[0].Free()
	if port.Kind() != switchdef.VhostKind {
		t.Fatal("kind wrong")
	}
}

func TestPtnetPortAdapterZeroCopy(t *testing.T) {
	dev := ptnet.New(ptnet.Config{Name: "pt0"})
	port := &switchdef.PtnetPort{Dev: dev}
	pool := pkt.NewPool(2048)
	m := cost.NewMeter(cost.Default(), nil)
	b := pool.Get(64)
	if port.TxBurst(0, m, []*pkt.Buf{b}) != 1 {
		t.Fatal("send failed")
	}
	var out [1]*pkt.Buf
	gm := cost.NewMeter(cost.Default(), nil)
	if dev.GuestRecv(gm, out[:]) != 1 {
		t.Fatal("guest recv failed")
	}
	if out[0] != b {
		t.Fatal("ptnet copied the buffer — must be zero-copy")
	}
	out[0].Free()
	if port.Kind() != switchdef.PtnetKind {
		t.Fatal("kind wrong")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	switchdef.Register(switchdef.Info{Name: "vpp"}, nil)
}

func TestPortKindString(t *testing.T) {
	if switchdef.PhysKind.String() != "phys" || switchdef.VhostKind.String() != "vhost-user" || switchdef.PtnetKind.String() != "ptnet" {
		t.Fatal("kind names wrong")
	}
	if switchdef.PortKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}
