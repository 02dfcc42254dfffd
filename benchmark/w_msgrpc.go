package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/policy"
	"tax/internal/simnet"
	"tax/internal/telemetry"
	"tax/internal/vclock"
)

// rpcRuleset is msg_rpc_tcp's policy: sixteen rules of which only the
// last matches the tenant's traffic, so every evaluation walks the whole
// list, and a quota line generous enough never to refuse but real enough
// that Charge does its token arithmetic.
func rpcRuleset() string {
	var b strings.Builder
	b.WriteString("default deny\n")
	for i := 0; i < 15; i++ {
		fmt.Fprintf(&b, "r%02d: deny guest%d send tacoma://*/**\n", i, i)
	}
	b.WriteString("ok: allow tenant* send tacoma://*/**\n")
	b.WriteString("lim: quota tenant* rate=10000000 burst=10000000\n")
	return b.String()
}

// newRPCPolicy is the engine msg_rpc_tcp's firewalls run, built as
// cmd/taxd builds its own: the node's clock, no default quota.
func newRPCPolicy(clock vclock.Clock) *policy.Engine {
	return policy.New(clock, policy.MustParse(rpcRuleset()), policy.Quota{})
}

// tcpSite is one firewall on a real loopback socket, built the way
// cmd/taxd builds its node: real clock, host:port URIs, policy engine.
type tcpSite struct {
	fw   *firewall.Firewall
	node *simnet.TCPNode
	host string
	port int
}

func (s *tcpSite) uri(principal, name string) string {
	return "tacoma://" + net.JoinHostPort(s.host, strconv.Itoa(s.port)) + "/" + principal + "/" + name
}

func (s *tcpSite) close() {
	_ = s.fw.Close()
	_ = s.node.Close()
}

// newTCPSite boots one site. telemetryOn turns spans and audit events on,
// which only the layer timings do (telemetry.rpc_overhead_pct); the
// workload runs with them off.
func newTCPSite(trust *identity.TrustStore, telemetryOn bool, tr *tracer) (*tcpSite, error) {
	node, err := simnet.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	host, portStr, err := net.SplitHostPort(node.Addr())
	if err != nil {
		_ = node.Close()
		return nil, err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		_ = node.Close()
		return nil, err
	}
	clock := vclock.NewReal()
	cfg := firewall.Config{
		HostName:        host,
		Port:            port,
		Node:            traceNode(node, tr),
		Trust:           trust,
		Clock:           clock,
		Policy:          newRPCPolicy(clock),
		SystemPrincipal: "system",
		Resolve: func(h string, p int) (string, error) {
			return net.JoinHostPort(h, strconv.Itoa(p)), nil
		},
	}
	if telemetryOn {
		cfg.Telemetry = telemetry.New(telemetry.Options{Host: node.Addr(), Spans: true, Events: true})
	}
	fw, err := firewall.New(cfg)
	if err != nil {
		_ = node.Close()
		return nil, err
	}
	return &tcpSite{fw: fw, node: node, host: host, port: port}, nil
}

// msgRPC is the msg_rpc_tcp workload: one tenant client doing
// Context.Meet against an echo agent on the other firewall.
type msgRPC struct {
	telemetry bool // spans + events on both firewalls; see newTCPSite
	tr        *tracer
	a, b      *tcpSite
	client    *agent.Context
	target    string
	body      []byte
	echoDone  chan struct{}
}

func (w *msgRPC) sliceOps() int { return 5_000 }

func (w *msgRPC) setup(seed int64, tr *tracer) error {
	w.tr = tr
	sys, err := identity.NewPrincipal("system")
	if err != nil {
		return err
	}
	trust := &identity.TrustStore{}
	trust.AddPrincipal(sys, identity.System)
	if w.a, err = newTCPSite(trust, w.telemetry, tr); err != nil {
		return err
	}
	if w.b, err = newTCPSite(trust, w.telemetry, tr); err != nil {
		return err
	}
	creg, err := w.a.fw.Register("vm_go", "tenant1", "client")
	if err != nil {
		return err
	}
	ereg, err := w.b.fw.Register("vm_go", "tenant1", "echo")
	if err != nil {
		return err
	}
	w.client = agent.NewContext(w.a.fw, creg, briefcase.New(), nil, nil)
	w.target = w.b.uri("tenant1", "echo")
	w.body = make([]byte, 256)
	rand.New(rand.NewSource(seed)).Read(w.body)

	echo := agent.NewContext(w.b.fw, ereg, briefcase.New(), nil, nil)
	w.echoDone = make(chan struct{})
	go func() {
		defer close(w.echoDone)
		for {
			req, err := echo.Await(0)
			if err != nil {
				return // registration killed: the firewall closed
			}
			id := tr.begin(spanHandler, currentOp)
			resp := briefcase.New()
			if f, err := req.Folder("BODY"); err == nil {
				resp.Ensure("BODY").Append(f.Bytes()...)
			}
			_ = echo.Reply(req, resp)
			tr.end(id)
		}
	}()
	return nil
}

func (w *msgRPC) run(n int, rec *recorder) error {
	for i := 0; i < n; i++ {
		root := w.tr.beginOp()
		req := briefcase.New()
		req.Ensure("BODY").Append(w.body)
		t0 := time.Now()
		reply, err := w.client.Meet(w.target, req, 5*time.Second)
		d := time.Since(t0)
		w.tr.endOp(root)
		if err != nil {
			rec.fail(err)
			continue
		}
		if f, err := reply.Folder("BODY"); err != nil || f.Len() != 1 || !bytes.Equal(f.Bytes()[0], w.body) {
			rec.fail(fmt.Errorf("echo body differs"))
			continue
		}
		rec.ok(d)
	}
	return nil
}

// check: every frame either firewall saw was allowed and routed.
func (w *msgRPC) check() error {
	for _, s := range []*tcpSite{w.a, w.b} {
		if err := wantZero(s.fw, "fw.errors", "fw.policy_deny", "fw.policy_quota", "fw.queued"); err != nil {
			return err
		}
	}
	return nil
}

func (w *msgRPC) counters() map[string]float64 { return fwCounters(w.a.fw, w.b.fw) }

func (w *msgRPC) close() {
	if w.a != nil {
		w.a.close()
	}
	if w.b != nil {
		w.b.close()
	}
	if w.echoDone != nil {
		<-w.echoDone
	}
}
