package ntpddos

import (
	"strconv"
	"testing"
	"time"
)

// TestRegistryIDsMatchTables checks each registry id names the table its
// entry builds, and that All() is the paper's 33 tables in registry order.
func TestRegistryIDsMatchTables(t *testing.T) {
	s := sim(t)
	all := s.All()
	if len(all) != 33 {
		t.Fatalf("All() returned %d tables, want 33", len(all))
	}
	for i, id := range ExperimentIDs() {
		tab := s.Report(id)
		if tab == nil || tab.ID != id {
			t.Fatalf("registry id %q built table %+v", id, tab)
		}
		if i < len(all) && all[i].ID != id {
			t.Fatalf("All()[%d] is %q, registry says %q", i, all[i].ID, id)
		}
	}
	if s.Report("nope") != nil {
		t.Fatal("unknown id resolved")
	}
	// The quick world arms neither the detector nor the timesync plane, so
	// Reports adds nothing to All().
	if n := len(s.Reports()); n != len(all) {
		t.Fatalf("Reports() = %d tables on a plain run, want %d", n, len(all))
	}
}

// TestByIDMatchesAll checks ByID builds exactly the table All() does.
func TestByIDMatchesAll(t *testing.T) {
	s := sim(t)
	for _, want := range s.All() {
		got := s.ByID(want.ID)
		if got == nil || got.Render() != want.Render() || got.CSV() != want.CSV() {
			t.Fatalf("ByID(%q) differs from All()'s table", want.ID)
		}
	}
}

// TestFigure9ScanningLeadsAttacks checks the §5 early-warning result on
// Figure 9: the darknet's scanner surge precedes Merit's NTP attack
// traffic by about a week. The onset threshold is 20 weekly scanners at
// Scale 400, scaled with the scanner counts as 1/Scale.
func TestFigure9ScanningLeadsAttacks(t *testing.T) {
	s := sim(t)
	tab := s.Figure9()
	// fig9 reports daily averages of the weekly scanner count.
	threshold := 20.0 / 7 * 400 / float64(s.Scale())
	var scanOnset, attackOnset time.Time
	for _, row := range tab.Rows {
		week, err1 := time.Parse("2006-01-02", row[0])
		scanners, err2 := strconv.ParseFloat(row[1], 64)
		mbps, err3 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparseable fig9 row %v", row)
		}
		if scanOnset.IsZero() && scanners >= threshold {
			scanOnset = week
		}
		if attackOnset.IsZero() && mbps >= 1 {
			attackOnset = week
		}
	}
	if scanOnset.IsZero() || attackOnset.IsZero() {
		t.Fatalf("no onset found: scanning %v, attacks %v", scanOnset, attackOnset)
	}
	lead := attackOnset.Sub(scanOnset).Hours() / 24
	t.Logf("scanning surged %s, attack traffic arrived %s: lead %.0f days",
		scanOnset.Format("2006-01-02"), attackOnset.Format("2006-01-02"), lead)
	if lead < 1 || lead > 14 {
		t.Fatalf("scanning led attack traffic by %.0f days, want 1-14 (paper: about a week)", lead)
	}
}

// TestReportsBeforeFirstSurvey renders every experiment for a window that
// ends before the first ONP survey (2014-01-10): the run has no monlist
// samples, and each report must still render instead of panicking.
func TestReportsBeforeFirstSurvey(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scale = 4000
	cfg.End = time.Date(2013, 12, 1, 0, 0, 0, 0, time.UTC)
	s := Run(cfg)
	if n := len(s.Results().MonlistAnalyses); n != 0 {
		t.Fatalf("window before the first survey has %d monlist samples", n)
	}
	for _, id := range ExperimentIDs() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Report(%q) panicked: %v", id, r)
				}
			}()
			tab := s.Report(id)
			if tab == nil || tab.ID != id {
				t.Errorf("Report(%q) = %+v", id, tab)
				return
			}
			tab.Render()
		}()
	}
}
