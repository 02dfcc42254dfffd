package webbot

import "testing"

// TestGateVerdicts covers every reason, the order the gate checks them
// in, and the boundaries at the max and the stable depth. Verdict runs
// once per link on every crawl path, so it must not allocate.
func TestGateVerdicts(t *testing.T) {
	rules := ParseRobots("User-agent: *\nDisallow: /private/\n\nUser-agent: badbot\nDisallow: /\n")
	gate := func(opts ...Option) *Gate {
		t.Helper()
		g, err := NewGate(rules, append([]Option{WithPrefix("http://webserv/")}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	atStable := gate(WithMaxDepth(4))                   // max depth = stable depth = 4
	beyond := gate(WithMaxDepth(6))                     // stable 4 < max 6
	raised := gate(WithMaxDepth(6), WithStableDepth(8)) // stable above max
	badbot := gate(WithMaxDepth(4), WithUserAgent("badbot/1.0"))
	const (
		in      = "http://webserv/d1/p1.html"
		out     = "http://elsewhere/d1/p1.html"
		private = "http://webserv/private/p1.html"
	)
	for _, tc := range []struct {
		name  string
		g     *Gate
		url   string
		depth int
		want  Reason
	}{
		{"root", atStable, "http://webserv/", 0, ReasonOK},
		{"inside", atStable, in, 1, ReasonOK},
		{"outside prefix", atStable, out, 1, ReasonPrefix},
		{"disallowed", atStable, private, 1, ReasonRobots},
		{"too deep", atStable, in, 5, ReasonDepth},
		{"beyond stable", beyond, in, 5, ReasonUnstable},

		{"outside prefix and too deep", atStable, out, 9, ReasonPrefix},
		{"outside prefix and disallowed", atStable, "http://elsewhere/private/p.html", 1, ReasonPrefix},
		{"disallowed and too deep", atStable, private, 9, ReasonRobots},
		{"disallowed and beyond stable", beyond, private, 5, ReasonRobots},

		{"at max depth", atStable, in, 4, ReasonOK},
		{"one past max depth", atStable, in, 5, ReasonDepth},
		{"at stable depth", beyond, in, 4, ReasonOK},
		{"one past stable depth", beyond, in, 5, ReasonUnstable},
		{"at max past stable", beyond, in, 6, ReasonUnstable},
		{"one past max past stable", beyond, in, 7, ReasonDepth},
		{"stable raised past max", raised, in, 6, ReasonOK},
		{"stable raised, one past max", raised, in, 7, ReasonDepth},

		{"agent's own group", badbot, in, 1, ReasonRobots},
	} {
		if got := tc.g.Verdict(tc.url, tc.depth); got != tc.want {
			t.Errorf("%s: Verdict(%q, %d) = %q, want %q", tc.name, tc.url, tc.depth, got, tc.want)
		}
	}

	// The rejecting reasons are the LinkReport.Reason strings the
	// rejected-link log has always carried.
	for r, want := range map[Reason]string{ReasonOK: "ok", ReasonPrefix: "prefix",
		ReasonRobots: "robots", ReasonDepth: "depth", ReasonUnstable: "unstable"} {
		if string(r) != want {
			t.Errorf("reason %q, want %q", r, want)
		}
	}

	if _, err := NewGate(nil, WithMaxDepth(-1)); err == nil {
		t.Error("NewGate accepted a negative max depth")
	}

	if raceBuild {
		return // the race detector allocates on its own account
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, d := range []int{0, 4, 5, 7} {
			atStable.Verdict(in, d)
			beyond.Verdict(in, d)
			atStable.Verdict(out, d)
			atStable.Verdict(private, d)
			badbot.Verdict(in, d)
		}
	})
	if allocs != 0 {
		t.Errorf("Verdict allocates %.1f times per run, want 0", allocs)
	}
}
