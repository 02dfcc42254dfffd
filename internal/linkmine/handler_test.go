package linkmine

import (
	"strconv"
	"strings"
	"testing"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/vclock"
	"tax/internal/vm"
	"tax/internal/webbot"
	"tax/internal/websim"
)

// TestWebbotHandlerDepth drives the Webbot binary, on the paper's server
// and on a campus server, with the crawl depth a briefcase can carry:
// none, a negative one, and one past the stable limit, which clamps to
// depth 4 and journals the abandoned subtrees as wb_depth_unstable.
func TestWebbotHandlerDepth(t *testing.T) {
	var robots []*webbot.Robot
	build := newRobot
	newRobot = func(f websim.ForkableFetcher, clock vclock.Clock, depth int, prefix string) *webbot.Robot {
		r := build(f, clock, depth, prefix)
		robots = append(robots, r)
		return r
	}
	defer func() { newRobot = build }()

	single, err := NewDeployment(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = single.Close() }()
	campus, err := NewDeployment(smallMulti())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = campus.Close() }()

	for _, h := range []struct {
		name    string
		node    *core.Node
		handler vm.Handler
		site    *websim.Site
	}{
		{"single", single.Servers[0], single.webbotHandler(single.Servers[0]), single.Sites[0]},
		{"campus", campus.Servers[0], campus.webbotHandler(campus.Servers[0]), campus.Sites[0]},
	} {
		for i, tc := range []struct {
			name    string
			depth   *int64
			wantErr string
		}{
			{"missing DEPTH", nil, "no DEPTH folder"},
			{"negative DEPTH", ptr(-1), "negative max depth"},
			{"DEPTH 5", ptr(5), ""},
		} {
			robots = nil
			bc := briefcase.New()
			bc.SetString(FolderStart, h.site.Root)
			bc.SetString(FolderPrefix, "http://"+h.node.Name+"/")
			if tc.depth != nil {
				bc.SetInt(FolderDepth, *tc.depth)
			}
			reg, err := h.node.FW.Register("test", "system", "webbot-"+h.name+strconv.Itoa(i))
			if err != nil {
				t.Fatal(err)
			}
			err = h.handler(agent.NewContext(h.node.FW, reg, bc, nil, nil))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s, %s: err = %v, want %q", h.name, tc.name, err, tc.wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, %s: %v", h.name, tc.name, err)
			}
			crawl, _ := bc.GetString(FolderCrawl)
			pages, _ := strconv.Atoi(strings.SplitN(crawl, "|", 2)[0])
			if want := h.site.PagesWithinDepth(4); pages != want {
				t.Errorf("%s, %s: crawled %d pages, want %d (clamped to depth 4)", h.name, tc.name, pages, want)
			}
			journaled := 0
			for _, r := range robots {
				for _, fl := range r.Failures() {
					if fl.Code == webbot.CodeDepthUnstable {
						journaled++
					}
				}
			}
			if journaled == 0 {
				t.Errorf("%s, %s: no wb_depth_unstable journaled", h.name, tc.name)
			}
		}
	}
}

func ptr(v int64) *int64 { return &v }
