package core

import (
	"encoding/csv"
	"fmt"
	"io"
)

// CSV exports, for plotting the reproduced figures with external tools.

// WriteFigureCSV emits a grid figure as CSV, one row per point in grid
// order, with its family's columns — for the throughput figures
// switch,scenario,chain,bidir,frame_bytes,gbps,mpps,unsupported.
func WriteFigureCSV(w io.Writer, fig *Figure) error {
	f, err := lookupGrid(fig.ID)
	if err != nil {
		return err
	}
	header := make([]string, len(f.csv))
	for j, col := range f.csv {
		header[j] = col.name
	}
	rows := append(make([][]string, 0, 1+len(fig.Pts)), header)
	for i := range fig.Pts {
		row := make([]string, len(f.csv))
		for j, col := range f.csv {
			row[j] = col.value(&fig.Pts[i])
		}
		rows = append(rows, row)
	}
	return csv.NewWriter(w).WriteAll(rows)
}

// WriteFigure1CSV emits the scatter data with the columns
// switch,gbps,mean_us,std_us.
func WriteFigure1CSV(w io.Writer, pts []Figure1Point) error {
	rows := [][]string{{"switch", "gbps", "mean_us", "std_us"}}
	for _, p := range pts {
		rows = append(rows, []string{p.Switch,
			fmt.Sprintf("%.4f", p.Gbps),
			fmt.Sprintf("%.2f", p.MeanUs),
			fmt.Sprintf("%.2f", p.StdUs)})
	}
	return csv.NewWriter(w).WriteAll(rows)
}

// WriteTable3CSV emits the latency table with the columns
// switch,scenario,load,mean_us.
func WriteTable3CSV(w io.Writer, cells []Table3Cell) error {
	rows := [][]string{{"switch", "scenario", "load", "mean_us"}}
	for _, c := range cells {
		if c.Unsupported {
			continue
		}
		for i, load := range Table3Loads {
			rows = append(rows, []string{c.Switch, c.Scenario,
				fmt.Sprintf("%.2f", load),
				fmt.Sprintf("%.2f", c.MeanUs[i])})
		}
	}
	return csv.NewWriter(w).WriteAll(rows)
}
