package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/units"
)

var quickOpts = RunOpts{Duration: 2 * units.Millisecond, Warmup: units.Millisecond}

func TestRenderStaticTables(t *testing.T) {
	var b bytes.Buffer
	RenderTable1(&b)
	out := b.String()
	for _, want := range []string{"OvS-DPDK", "match/action", "ptnet", "pipeline", "Lua"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
	b.Reset()
	RenderTable2(&b)
	out = b.String()
	for _, want := range []string{"4096", "flow control", "MAC learning"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 missing %q", want)
		}
	}
	b.Reset()
	RenderTable5(&b)
	if !strings.Contains(b.String(), "QEMU") {
		t.Error("table 5 missing the BESS remark")
	}
}

func TestFigureStructureAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fig, err := FigureOn(SerialRunner{}, "4a", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	// 7 switches × 3 sizes × 2 directions.
	if len(fig.Pts) != 42 {
		t.Fatalf("points = %d", len(fig.Pts))
	}
	for _, pt := range fig.Pts {
		if pt.Unsupported {
			t.Errorf("unexpected unsupported point %+v", pt)
		}
		if pt.Gbps <= 0 || pt.Gbps > 20.2 {
			t.Errorf("point out of range: %+v", pt)
		}
	}
	var b bytes.Buffer
	RenderFigure(&b, fig, true)
	out := b.String()
	if !strings.Contains(out, "unidirectional") || !strings.Contains(out, "bidirectional") {
		t.Error("directions missing from render")
	}
	if !strings.Contains(out, "(paper)") {
		t.Error("compare columns missing")
	}
}

func TestFigure5MarksBESSUnsupported(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fig, err := FigureOn(SerialRunner{}, "5", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	unsupported := 0
	for _, pt := range fig.Pts {
		if pt.Switch == "bess" && pt.Chain > 3 {
			if !pt.Unsupported {
				t.Errorf("bess chain %d not marked unsupported", pt.Chain)
			}
			unsupported++
		}
	}
	if unsupported != 6 { // chains 4,5 × 3 sizes
		t.Fatalf("unsupported points = %d", unsupported)
	}
	var b bytes.Buffer
	RenderFigure(&b, fig, false)
	if !strings.Contains(b.String(), "-") {
		t.Error("missing '-' markers in render")
	}
}

func TestRenderTable3And4(t *testing.T) {
	cells := []Table3Cell{
		{Switch: "vpp", Scenario: "p2p", MeanUs: [3]float64{4.5, 5.9, 13.1}},
		{Switch: "bess", Scenario: "4-VNF loopback", Unsupported: true},
	}
	var b bytes.Buffer
	RenderTable3(&b, cells, true)
	out := b.String()
	if !strings.Contains(out, "4.5") || !strings.Contains(out, "paper") {
		t.Errorf("table 3 render: %q", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("unsupported marker missing")
	}
	b.Reset()
	RenderTable4(&b, []Table4Row{{Switch: "vale", MeanUs: 19.9}}, true)
	if !strings.Contains(b.String(), "19.9") || !strings.Contains(b.String(), "21") {
		t.Errorf("table 4 render: %q", b.String())
	}
}

func TestRenderResultFormats(t *testing.T) {
	res, err := Run(Config{Switch: "vpp", Scenario: Loopback, Chain: 2,
		ProbeEvery: 50 * units.Microsecond,
		Duration:   2 * units.Millisecond, Warmup: units.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	RenderResult(&b, res)
	out := b.String()
	for _, want := range []string{"VPP", "loopback", "chain=2", "Gbps", "rtt"} {
		if !strings.Contains(out, want) {
			t.Errorf("result render missing %q: %q", want, out)
		}
	}
}

func TestPaperDataCoversAllSwitches(t *testing.T) {
	for _, name := range Switches {
		if _, ok := PaperTable4[name]; !ok {
			t.Errorf("PaperTable4 missing %s", name)
		}
		rows, ok := PaperTable3[name]
		if !ok {
			t.Errorf("PaperTable3 missing %s", name)
			continue
		}
		if _, ok := rows["p2p"]; !ok {
			t.Errorf("PaperTable3[%s] missing p2p", name)
		}
		// BESS has no 4-VNF row (the paper prints "-").
		_, has4 := rows["4-VNF loopback"]
		if name == "bess" && has4 {
			t.Error("PaperTable3[bess] must not have a 4-VNF row")
		}
		if name != "bess" && !has4 {
			t.Errorf("PaperTable3[%s] missing 4-VNF row", name)
		}
	}
}

func TestCSVExports(t *testing.T) {
	fig := &Figure{ID: "4a", Scenario: P2P, Pts: []ThroughputPoint{
		{Switch: "vpp", FrameLen: 64, Gbps: 10, Mpps: 14.88, Chain: 1},
		{Switch: "bess", FrameLen: 64, Bidir: true, Gbps: 16.4, Mpps: 24.4, Chain: 1},
	}}
	var b bytes.Buffer
	if err := WriteFigureCSV(&b, fig); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "switch,scenario") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "bess,p2p,1,true,64,16.4000") {
		t.Fatalf("row = %q", lines[2])
	}

	b.Reset()
	if err := WriteFigure1CSV(&b, []Figure1Point{{Switch: "vale", Gbps: 5.7, MeanUs: 10, StdUs: 4.8}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "vale,5.7000,10.00,4.80") {
		t.Fatalf("fig1 csv = %q", b.String())
	}

	b.Reset()
	cells := []Table3Cell{
		{Switch: "vpp", Scenario: "p2p", MeanUs: [3]float64{4, 5, 13}},
		{Switch: "bess", Scenario: "4-VNF loopback", Unsupported: true},
	}
	if err := WriteTable3CSV(&b, cells); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(rows) != 4 { // header + three loads for vpp; bess skipped
		t.Fatalf("rows = %v", rows)
	}
}
