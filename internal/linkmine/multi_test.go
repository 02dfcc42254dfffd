package linkmine

import (
	"fmt"
	"testing"
)

func smallMulti() Config {
	return Config{Servers: 3, Spec: CampusSpec(60)}
}

func TestMultiStationary(t *testing.T) {
	d, err := NewDeployment(smallMulti())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	rep, err := d.RunStationary()
	if err != nil {
		t.Fatal(err)
	}
	wantPages := 0
	wantDead := 0
	for _, site := range d.Sites {
		wantPages += site.PagesWithinDepth(4)
		wantDead += len(site.DeadInternalLinks()) + len(site.DeadExternalLinks())
	}
	if rep.PagesVisited != wantPages {
		t.Errorf("pages = %d, want %d", rep.PagesVisited, wantPages)
	}
	if rep.InvalidTotal() != wantDead {
		t.Errorf("dead links = %d, want %d", rep.InvalidTotal(), wantDead)
	}
	if rep.TotalElapsed <= 0 {
		t.Error("no elapsed time")
	}
}

func TestMultiMobileMatchesStationary(t *testing.T) {
	ds, err := NewDeployment(smallMulti())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ds.Close() }()
	stationary, err := ds.RunStationary()
	if err != nil {
		t.Fatal(err)
	}

	dm, err := NewDeployment(smallMulti())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dm.Close() }()
	mobile, err := dm.RunMobileMulti()
	if err != nil {
		t.Fatal(err)
	}

	if mobile.PagesVisited != stationary.PagesVisited {
		t.Errorf("coverage differs: mobile %d, stationary %d",
			mobile.PagesVisited, stationary.PagesVisited)
	}
	if mobile.InvalidTotal() != stationary.InvalidTotal() {
		t.Errorf("dead links differ: mobile %d, stationary %d",
			mobile.InvalidTotal(), stationary.InvalidTotal())
	}
	if len(mobile.Skipped) != 0 {
		t.Errorf("skipped servers: %v", mobile.Skipped)
	}
	// The itinerant agent must beat the fixed client on the campus LAN
	// and move far less data.
	if mobile.TotalElapsed >= stationary.TotalElapsed {
		t.Errorf("mobile %v not faster than stationary %v",
			mobile.TotalElapsed, stationary.TotalElapsed)
	}
	if mobile.LinkBytes >= stationary.LinkBytes {
		t.Errorf("mobile moved %d bytes, stationary %d",
			mobile.LinkBytes, stationary.LinkBytes)
	}
}

func TestMultiSkipsUnreachableServer(t *testing.T) {
	d, err := NewDeployment(smallMulti())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	// Cut www2 off from everything before launch.
	for _, other := range []string{"client", "www1", "www3"} {
		d.Sys.Net.Partition("www2", other)
	}
	rep, err := d.RunMobileMulti()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 {
		t.Fatalf("skipped = %v, want exactly www2", rep.Skipped)
	}
	// Two of three servers still scanned.
	want := d.Sites[0].PagesWithinDepth(4) + d.Sites[2].PagesWithinDepth(4)
	if rep.PagesVisited != want {
		t.Errorf("pages = %d, want %d", rep.PagesVisited, want)
	}
}

// TestCampusFigures holds EXPERIMENTS E1-campus's first two rows (200
// pages per server) digit for digit: elapsed and link bytes, fixed
// client then itinerant agent.
func TestCampusFigures(t *testing.T) {
	for _, tc := range []struct {
		servers int
		want    string
	}{
		{1, "2011.3 / 1849.0 ms, 730340 / 66886 B"},
		{2, "4152.6 / 3826.1 ms, 1461121 / 134504 B"},
	} {
		t.Run(fmt.Sprintf("K%d", tc.servers), func(t *testing.T) {
			cfg := Config{Servers: tc.servers, Spec: CampusSpec(200)}
			ds, err := NewDeployment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ds.Close() }()
			stationary, err := ds.RunStationary()
			if err != nil {
				t.Fatal(err)
			}
			dm, err := NewDeployment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = dm.Close() }()
			mobile, err := dm.RunMobileMulti()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%.1f / %.1f ms, %d / %d B", msOf(stationary.TotalElapsed), msOf(mobile.TotalElapsed),
				stationary.LinkBytes, mobile.LinkBytes)
			if got != tc.want {
				t.Errorf("campus K=%d = %s, want %s", tc.servers, got, tc.want)
			}
		})
	}
}
