package firewall_test

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/policy"
	"tax/internal/simnet"
	"tax/internal/vclock"
)

// tcpMeetSite boots one firewall on a loopback socket the way cmd/taxd
// does — real clock, host:port addressing — with a 16-rule policy of
// which only the last rule matches the tenant, and a quota that charges
// but never refuses.
func tcpMeetSite(t *testing.T, trust *identity.TrustStore) (*firewall.Firewall, string) {
	t.Helper()
	node, err := simnet.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	host, portStr, err := net.SplitHostPort(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		t.Fatal(err)
	}
	var rules strings.Builder
	rules.WriteString("default deny\n")
	for i := 0; i < 15; i++ {
		fmt.Fprintf(&rules, "r%02d: deny guest%d send tacoma://*/**\n", i, i)
	}
	rules.WriteString("ok: allow tenant* send tacoma://*/**\n")
	rules.WriteString("lim: quota tenant* rate=10000000 burst=10000000\n")
	clock := vclock.NewReal()
	fw, err := firewall.New(firewall.Config{
		HostName:        host,
		Port:            port,
		Node:            node,
		Trust:           trust,
		Clock:           clock,
		Policy:          policy.New(clock, policy.MustParse(rules.String()), policy.Quota{}),
		SystemPrincipal: "system",
		Resolve: func(h string, p int) (string, error) {
			return net.JoinHostPort(h, strconv.Itoa(p)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fw.Close() })
	return fw, "tacoma://" + node.Addr() + "/"
}

// tcpMeetAllocs is the exact number of heap allocations one Meet round
// trip costs, both hosts and all goroutines counted: request briefcase,
// mediation and encode at the client, the frame over loopback TCP,
// decode, mediation and delivery at the server, the echo's reply and the
// same again on the way back. The transport's share is one per frame, the
// payload; _SENDER and the receive timer cost nothing per message. A
// briefcase is one allocation built empty and three decoded, and a
// single-element folder needs no element slice. Lower it when it falls,
// and treat a rise as a regression to explain.
const tcpMeetAllocs = 49

// TestTCPMeetAllocBudget pins what a small message between two nodes
// costs in allocations, so the gain cannot erode silently.
func TestTCPMeetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under the race detector")
	}
	sys, err := identity.NewPrincipal("system")
	if err != nil {
		t.Fatal(err)
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(sys, identity.System)
	fwA, _ := tcpMeetSite(t, trust)
	fwB, baseB := tcpMeetSite(t, trust)
	creg, err := fwA.Register("vm_go", "tenant1", "client")
	if err != nil {
		t.Fatal(err)
	}
	ereg, err := fwB.Register("vm_go", "tenant1", "echo")
	if err != nil {
		t.Fatal(err)
	}
	client := agent.NewContext(fwA, creg, briefcase.New(), nil, nil)
	echo := agent.NewContext(fwB, ereg, briefcase.New(), nil, nil)
	go func() {
		for {
			req, err := echo.Await(0)
			if err != nil {
				return // registration killed: the firewall closed
			}
			resp := briefcase.New()
			if f, err := req.Folder("BODY"); err == nil {
				resp.Ensure("BODY").Append(f.Bytes()...)
			}
			_ = echo.Reply(req, resp)
		}
	}()

	target, body := baseB+"tenant1/echo", make([]byte, 256)
	meet := func() {
		req := briefcase.New()
		req.Ensure("BODY").Append(body)
		reply, err := client.Meet(target, req, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if f, err := reply.Folder("BODY"); err != nil || f.Len() != 1 {
			t.Fatalf("echo reply has no body: %v", err)
		}
	}
	for i := 0; i < 200; i++ {
		meet() // connections dialed, pools and the policy index warm
	}
	// Counted across both hosts' goroutines, and rounded: the runtime's
	// own caches refill a few times per thousand round trips.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		meet()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / runs; math.Round(got) != tcpMeetAllocs {
		t.Errorf("a Meet round trip over TCP costs %.2f allocations, pinned at %d", got, tcpMeetAllocs)
	}
}
