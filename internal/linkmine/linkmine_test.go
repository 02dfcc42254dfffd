package linkmine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/simnet"
	"tax/internal/webbot"
	"tax/internal/websim"
)

func smallConfig() Config {
	// A scaled-down site keeps unit tests fast; the full 917-page
	// workload runs in the E1 bench and the paper-shape test below.
	spec := websim.CaseStudySpec("webserv")
	spec.Pages = 120
	spec.TotalBytes = 400 << 10
	spec.ExtraPages = 30
	return Config{Spec: spec}
}

func TestStationaryScan(t *testing.T) {
	d, err := NewDeployment(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()

	rep, err := d.RunStationary()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "stationary" {
		t.Errorf("mode = %q", rep.Mode)
	}
	if rep.PagesVisited != d.Sites[0].PagesWithinDepth(4) {
		t.Errorf("pages = %d, want %d", rep.PagesVisited, d.Sites[0].PagesWithinDepth(4))
	}
	if len(rep.InvalidInternal) != len(d.Sites[0].DeadInternalLinks()) {
		t.Errorf("invalid internal = %d, want %d",
			len(rep.InvalidInternal), len(d.Sites[0].DeadInternalLinks()))
	}
	if rep.ScanElapsed <= 0 || rep.TotalElapsed < rep.ScanElapsed {
		t.Errorf("elapsed: scan %v total %v", rep.ScanElapsed, rep.TotalElapsed)
	}
	if rep.LinkBytes < int64(rep.BytesFetched) {
		t.Errorf("link bytes %d < fetched bytes %d", rep.LinkBytes, rep.BytesFetched)
	}
}

func TestMobileScan(t *testing.T) {
	d, err := NewDeployment(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()

	rep, err := d.RunMobile()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesVisited != d.Sites[0].PagesWithinDepth(4) {
		t.Errorf("pages = %d, want %d", rep.PagesVisited, d.Sites[0].PagesWithinDepth(4))
	}
	if len(rep.InvalidInternal) != len(d.Sites[0].DeadInternalLinks()) {
		t.Errorf("invalid internal = %d, want %d",
			len(rep.InvalidInternal), len(d.Sites[0].DeadInternalLinks()))
	}
	if rep.ExternalChecks == 0 {
		t.Error("second pass never ran")
	}
	if rep.TotalElapsed <= 0 {
		t.Error("no elapsed time")
	}
	// The mobile agent moves the binary + condensed results, far less
	// than the 400 KiB of pages the stationary scan pulls.
	if rep.LinkBytes <= 0 {
		t.Error("no link traffic recorded")
	}
	maxExpected := int64(3 * 64 << 10)
	if rep.LinkBytes > maxExpected {
		t.Errorf("mobile link bytes = %d, want < %d (binary + results)",
			rep.LinkBytes, maxExpected)
	}
}

func TestMobileFindsSameDeadLinksAsStationary(t *testing.T) {
	cfg := smallConfig()
	cmp, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := func(rs []webbot.LinkReport) string {
		var urls []string
		for _, r := range rs {
			urls = append(urls, r.URL)
		}
		return strings.Join(urls, ",")
	}
	if key(cmp.Stationary.InvalidInternal) != key(cmp.Mobile.InvalidInternal) {
		t.Errorf("internal dead links differ:\n s: %s\n m: %s",
			key(cmp.Stationary.InvalidInternal), key(cmp.Mobile.InvalidInternal))
	}
	if key(cmp.Stationary.InvalidExternal) != key(cmp.Mobile.InvalidExternal) {
		t.Errorf("external dead links differ:\n s: %s\n m: %s",
			key(cmp.Stationary.InvalidExternal), key(cmp.Mobile.InvalidExternal))
	}
	if cmp.Stationary.PagesVisited != cmp.Mobile.PagesVisited {
		t.Errorf("coverage differs: %d vs %d",
			cmp.Stationary.PagesVisited, cmp.Mobile.PagesVisited)
	}
}

func TestMobileMovesLessData(t *testing.T) {
	cmp, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Mobile.LinkBytes >= cmp.Stationary.LinkBytes {
		t.Errorf("mobile moved %d bytes, stationary %d — no bandwidth saving",
			cmp.Mobile.LinkBytes, cmp.Stationary.LinkBytes)
	}
}

func TestPaperHeadlineShape(t *testing.T) {
	// E1: on the full 917-page / 3 MB workload over a 100 Mbit LAN the
	// mobile (locally executing) Webbot is 16.9% faster (the paper
	// reports 16%). Every figure is virtual-clock arithmetic, so the
	// test holds EXPERIMENTS E1's row digit for digit.
	if testing.Short() {
		t.Skip("full workload")
	}
	cmp, err := Run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Stationary.PagesVisited != 917 {
		t.Errorf("stationary pages = %d, want 917", cmp.Stationary.PagesVisited)
	}
	got := fmt.Sprintf("%.1f / %.1f ms, %.1f%%, %d / %d B",
		msOf(cmp.Stationary.ScanElapsed), msOf(cmp.Mobile.ScanElapsed), cmp.SpeedupPercent(),
		cmp.Stationary.LinkBytes, cmp.Mobile.LinkBytes)
	if want := "4572.6 / 3798.5 ms, 16.9%, 3351202 / 70043 B"; got != want {
		t.Errorf("E1 = %s, want %s", got, want)
	}
}

// msOf is d in milliseconds, as the evaluation tables print it.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TestRunSharesOneSite: Run generates the site once and both deployments
// serve that one site, which the two scans leave exactly as generated;
// systems and clocks stay per deployment.
func TestRunSharesOneSite(t *testing.T) {
	cfg := Config{}.withDefaults()
	fresh, err := websim.Generate(cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cmp, ds, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Stationary.PagesVisited != 917 || cmp.Mobile.PagesVisited != 917 {
		t.Fatalf("pages %d stationary, %d mobile, want 917", cmp.Stationary.PagesVisited, cmp.Mobile.PagesVisited)
	}
	stat, mob := ds[0], ds[1]
	if stat.Sites[0] != mob.Sites[0] {
		t.Error("deployments serve different sites, want one shared site")
	}
	if stat.Sites[0].Fingerprint() != fresh.Fingerprint() {
		t.Error("the scans changed the shared site")
	}
	if stat.Sys == mob.Sys || stat.Client == mob.Client || stat.Servers[0] == mob.Servers[0] {
		t.Error("deployments share a system or node")
	}
	if stat.Client.Host.Clock() == mob.Client.Host.Clock() || stat.Servers[0].Host.Clock() == mob.Servers[0].Host.Clock() {
		t.Error("deployments share a clock")
	}
}

func TestWANAmplifiesSpeedup(t *testing.T) {
	// §5's closing claim: across a WAN the mobile Webbot wins by much
	// more.
	if testing.Short() {
		t.Skip("full workload")
	}
	lan, err := Run(Config{Link: simnet.LAN100})
	if err != nil {
		t.Fatal(err)
	}
	wan, err := Run(Config{Link: simnet.WAN10})
	if err != nil {
		t.Fatal(err)
	}
	if wan.SpeedupPercent() <= lan.SpeedupPercent() {
		t.Errorf("WAN speedup %.1f%% not greater than LAN %.1f%%",
			wan.SpeedupPercent(), lan.SpeedupPercent())
	}
	if wan.SpeedupPercent() < 50 {
		t.Errorf("WAN speedup %.1f%%, want a dominant win", wan.SpeedupPercent())
	}
}

func TestMonitorWrapperInMobileRun(t *testing.T) {
	cfg := smallConfig()
	cfg.Monitor = true
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	rep, err := d.RunMobile()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.MonitorEvents, "\n")
	for _, want := range []string{"client: webbot: arrived", "webserv: webbot: arrived", "moving to"} {
		if !strings.Contains(joined, want) {
			t.Errorf("monitor missing %q in:\n%s", want, joined)
		}
	}
}

// TestKeepBinaryOnReturnMovesMore: figure 5's agent and the itinerant
// both drop the carried binary before the last leg home unless
// KeepBinaryOnReturn is set (§3.1 state dropping).
func TestKeepBinaryOnReturnMovesMore(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*Deployment) (*Report, error)
	}{
		{"figure5", (*Deployment).RunMobile},
		{"itinerant", (*Deployment).RunMobileMulti},
	} {
		t.Run(tc.name, func(t *testing.T) {
			linkBytes := func(keep bool) int64 {
				cfg := smallConfig()
				cfg.KeepBinaryOnReturn = keep
				d, err := NewDeployment(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = d.Close() }()
				rep, err := tc.run(d)
				if err != nil {
					t.Fatal(err)
				}
				return rep.LinkBytes
			}
			if keep, drop := linkBytes(true), linkBytes(false); keep <= drop {
				t.Errorf("state dropping saved nothing: keep %d, drop %d", keep, drop)
			}
		})
	}
}

func TestReportEncodingRoundTrip(t *testing.T) {
	bc := briefcase.New()
	in := []webbot.LinkReport{
		{URL: "http://a/x", Referrer: "http://a/", Status: 404, Reason: "invalid"},
		{URL: "http://b/y", Referrer: "http://a/z", Status: 0, Reason: "prefix"},
	}
	encodeReports(bc.Ensure("R"), in)
	f, _ := bc.Folder("R")
	out := decodeReports(f.Strings())
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("round trip: %+v", out)
	}
}

func TestUnreachableServerFailsMobile(t *testing.T) {
	d, err := NewDeployment(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	d.Sys.Net.Partition("client", "webserv")
	done := make(chan error, 1)
	go func() {
		_, err := d.RunMobile()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("mobile scan succeeded across a partition")
		}
	case <-time.After(90 * time.Second):
		t.Fatal("partitioned mobile scan hung")
	}
}
