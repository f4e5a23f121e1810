package main

import (
	"testing"
	"time"
)

// TestPaperTables runs the paper's three experiments at SF 0.0004 with a
// 512-bit modulus and holds every column that does not depend on timing to
// the table written here: the whole E2 coverage matrix, the result rows of
// every runnable query in E3, and SDB's answer rows beside the rows the
// ship-everything baseline moved in E7. Of the timings it asserts only the
// paper's split in its weakest form: summed over the runnable queries, the
// DO's work (parse, rewrite, decrypt) is below the SP's.
func TestPaperTables(t *testing.T) {
	t.Run("coverage", func(t *testing.T) {
		want := []coverageRow{
			{1, "sum,add(E,p),mul(E,E)", true, false},
			{2, "minmax,join(E=E)", true, true},
			{3, "ord,sum,add(E,p),mul(E,E),compose", true, false},
			{4, "", true, true},
			{5, "ord,sum,add(E,p),mul(E,E),compose", true, false},
			{6, "ord,sum,mul(E,E)", true, false},
			{7, "sum,add(E,p),mul(E,E)", true, false},
			{8, "sum,add(E,p),mul(E,E)", true, false},
			{9, "sum,add(E,E),add(E,p),mul(E,E)", true, false},
			{10, "eq,ord,sum,add(E,p),mul(E,E),compose", true, false},
			{11, "ord,sum,mul(E,p),compose", true, false},
			{12, "", true, true},
			{13, "", true, true},
			{14, "sum,add(E,p),mul(E,E)", true, false},
			{15, "ord,sum,add(E,p),mul(E,E),compose", true, false},
			{16, "", true, true},
			{17, "ord,sum,compose", true, false},
			{18, "ord,sum,compose", true, false},
			{19, "ord,sum,add(E,p),mul(E,E)", true, false},
			{20, "", true, true},
			{21, "", true, true},
			{22, "ord,sum", true, true},
		}
		got, err := coverage()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d coverage rows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("coverage: got %+v, want %+v", got[i], want[i])
			}
		}
	})

	p, err := deployment(0.0004, 512)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("breakdown", func(t *testing.T) {
		// Result rows per runnable query.
		want := [][2]int{
			{1, 6}, {3, 4}, {4, 5}, {5, 1}, {6, 1}, {10, 16}, {11, 50}, {12, 2}, {13, 15},
			{14, 1}, {15, 1}, {16, 17}, {18, 0}, {19, 1}, {20, 0}, {21, 0}, {22, 1},
		}
		got, err := breakdown(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d breakdown rows, want %d", len(got), len(want))
		}
		var client, server time.Duration
		for i, w := range want {
			if g := got[i]; g.Query != w[0] || g.Rows != w[1] {
				t.Errorf("breakdown: Q%d answered %d rows, want Q%d with %d", g.Query, g.Rows, w[0], w[1])
			}
			client += got[i].Client()
			server += got[i].Server
		}
		if client >= server {
			t.Errorf("the DO's work (%v) is not below the SP's (%v)", client, server)
		}
	})

	t.Run("shipall", func(t *testing.T) {
		want := []shipallRow{
			{Selectivity: "~2%", Rows: 49, Shipped: 2739},
			{Selectivity: "~50%", Rows: 1377, Shipped: 2739},
			{Selectivity: "~98%", Rows: 2690, Shipped: 2739},
		}
		got, err := shipallTable(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d ship-all rows, want %d", len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Selectivity != w.Selectivity || g.Rows != w.Rows || g.Shipped != w.Shipped {
				t.Errorf("shipall: %s answered %d rows and shipped %d, want %s, %d and %d",
					g.Selectivity, g.Rows, g.Shipped, w.Selectivity, w.Rows, w.Shipped)
			}
		}
	})
}
