package firewall

import (
	"strings"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/identity"
	"tax/internal/uri"
)

// mgmtRequest sends a management op from reg and returns the reply.
func mgmtRequest(t *testing.T, fw *Firewall, from *Registration, op, arg string) *briefcase.Briefcase {
	t.Helper()
	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, FirewallName)
	bc.SetString(FolderKind, KindManagement)
	bc.SetString(FolderOp, op)
	bc.SetString(FolderMsgID, "req-1")
	if arg != "" {
		bc.SetString(FolderArg, arg)
	}
	if err := fw.Send(from.GlobalURI(), bc); err != nil {
		t.Fatalf("mgmt send: %v", err)
	}
	reply, err := from.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("mgmt reply: %v", err)
	}
	if got, _ := reply.GetString(FolderReplyTo); got != "req-1" {
		t.Errorf("reply correlation = %q", got)
	}
	return reply
}

func sysAgent(t *testing.T, fw *Firewall, name string) *Registration {
	t.Helper()
	r, err := fw.Register("vm_go", "system", name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMgmtList(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	admin := sysAgent(t, fw, "admin")
	_, _ = fw.Register("vm_go", "alice", "webbot")

	reply := mgmtRequest(t, fw, admin, OpList, "")
	rows, err := reply.Folder(FolderReply)
	if err != nil {
		t.Fatalf("no reply rows: %v (%v)", err, reply)
	}
	joined := strings.Join(rows.Strings(), "\n")
	if !strings.Contains(joined, "alice/webbot") || !strings.Contains(joined, "system/admin") {
		t.Errorf("list rows:\n%s", joined)
	}
	if !strings.Contains(joined, "running") {
		t.Errorf("list rows lack state:\n%s", joined)
	}
}

func TestMgmtRuntime(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	admin := sysAgent(t, fw, "admin")
	target, _ := fw.Register("vm_go", "alice", "webbot")
	fw.Clock().Advance(5 * time.Second)

	reply := mgmtRequest(t, fw, admin, OpRuntime, target.URI().String())
	rows, err := reply.Folder(FolderReply)
	if err != nil {
		t.Fatalf("no rows: %v", err)
	}
	row := rows.Strings()[0]
	if !strings.Contains(row, "5000000000") { // 5s in ns
		t.Errorf("runtime row = %q", row)
	}
}

func TestMgmtKill(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	admin := sysAgent(t, fw, "admin")
	target, _ := fw.Register("vm_go", "alice", "webbot")

	reply := mgmtRequest(t, fw, admin, OpKill, "alice/webbot")
	if k := Kind(reply); k == KindError {
		msg, _ := reply.GetString(briefcase.FolderSysError)
		t.Fatalf("kill failed: %s", msg)
	}
	if target.State() != StateKilled {
		t.Errorf("state = %v", target.State())
	}
	if got := fw.Lookup(uri.URI{Name: "webbot"}, "alice"); len(got) != 0 {
		t.Error("killed agent still registered")
	}
}

func TestMgmtStopResume(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	admin := sysAgent(t, fw, "admin")
	target, _ := fw.Register("vm_go", "alice", "webbot")

	mgmtRequest(t, fw, admin, OpStop, "alice/webbot")
	if target.State() != StateStopped {
		t.Fatalf("state after stop = %v", target.State())
	}

	// A message delivered while stopped is held: Recv must not return it.
	send(t, fw, admin, "alice/webbot", "held")
	got := make(chan string, 1)
	go func() {
		bc, err := target.Recv(5 * time.Second)
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		body, _ := bc.GetString("BODY")
		got <- body
	}()
	select {
	case v := <-got:
		t.Fatalf("Recv returned %q while stopped", v)
	case <-time.After(150 * time.Millisecond):
	}

	mgmtRequest(t, fw, admin, OpResume, "alice/webbot")
	select {
	case v := <-got:
		if v != "held" {
			t.Errorf("after resume got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked after resume")
	}
}

func TestMgmtDeniedForUntrusted(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	// bob is not in the trust store at all.
	bob, _ := fw.Register("vm_go", "bob", "bob-agent")
	_, _ = fw.Register("vm_go", "alice", "webbot")

	reply := mgmtRequest(t, fw, bob, OpKill, "alice/webbot")
	if Kind(reply) != KindError {
		t.Fatalf("kill by unknown principal succeeded: %v", reply)
	}
	msg, _ := reply.GetString(briefcase.FolderSysError)
	if !strings.Contains(msg, "denied") && !strings.Contains(msg, "unknown principal") {
		t.Errorf("error = %q", msg)
	}
}

func TestMgmtListAllowedForTrusted(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	al, _ := fw.Register("vm_go", "alice", "al") // alice is Trusted
	reply := mgmtRequest(t, fw, al, OpList, "")
	if Kind(reply) == KindError {
		msg, _ := reply.GetString(briefcase.FolderSysError)
		t.Fatalf("trusted list denied: %s", msg)
	}
	// But kill requires System.
	_, _ = fw.Register("vm_go", "alice", "victim")
	reply = mgmtRequest(t, fw, al, OpKill, "alice/victim")
	if Kind(reply) != KindError {
		t.Error("trusted principal allowed to kill")
	}
}

func TestMgmtErrors(t *testing.T) {
	f := newFixture(t, "h1")
	fw := f.sites["h1"].fw
	admin := sysAgent(t, fw, "admin")

	tests := []struct {
		name, op, arg, wantSub string
	}{
		{"unknown op", "explode", "", "unknown operation"},
		{"kill missing arg", OpKill, "", "needs _ARG"},
		{"kill bad uri", OpKill, ":::", "parse error"},
		{"kill absent agent", OpKill, "alice/ghost", "no such agent"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			reply := mgmtRequest(t, fw, admin, tt.op, tt.arg)
			if Kind(reply) != KindError {
				t.Fatalf("no error for %s", tt.name)
			}
			msg, _ := reply.GetString(briefcase.FolderSysError)
			if !strings.Contains(msg, tt.wantSub) {
				t.Errorf("error = %q, want substring %q", msg, tt.wantSub)
			}
		})
	}
}

func TestRemoteManagement(t *testing.T) {
	// taxctl-style: an admin agent on h1 manages agents on h2.
	f := newFixture(t, "h1", "h2")
	fw1, fw2 := f.sites["h1"].fw, f.sites["h2"].fw
	admin := sysAgent(t, fw1, "admin")
	victim, _ := fw2.Register("vm_go", "alice", "webbot")

	bc := briefcase.New()
	bc.SetString(briefcase.FolderSysTarget, "tacoma://h2/system/"+FirewallName)
	bc.SetString(FolderKind, KindManagement)
	bc.SetString(FolderOp, OpKill)
	bc.SetString(FolderArg, "alice/webbot")
	bc.SetString(FolderMsgID, "rk-1")
	if err := fw1.Send(admin.GlobalURI(), bc); err != nil {
		t.Fatal(err)
	}
	reply, err := admin.Recv(3 * time.Second)
	if err != nil {
		t.Fatalf("no remote mgmt reply: %v", err)
	}
	if Kind(reply) == KindError {
		msg, _ := reply.GetString(briefcase.FolderSysError)
		t.Fatalf("remote kill failed: %s", msg)
	}
	if victim.State() != StateKilled {
		t.Errorf("victim state = %v", victim.State())
	}
}

func TestSignVerifyCore(t *testing.T) {
	f := newFixture(t, "h1")
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderCode).AppendString("the agent code")
	bc.Ensure(briefcase.FolderArgs).AppendString("arg0")

	SignCore(bc, f.alice)
	name, err := VerifyCore(bc, f.trust, identity.Untrusted)
	if err != nil || name != "alice" {
		t.Fatalf("VerifyCore = %q, %v", name, err)
	}

	// Arguments may mutate in flight without breaking the signature.
	bc.Ensure(briefcase.FolderArgs).AppendString("added later")
	if _, err := VerifyCore(bc, f.trust, identity.Untrusted); err != nil {
		t.Errorf("arg mutation broke core signature: %v", err)
	}

	// Code tampering must break it.
	bc.Ensure(briefcase.FolderCode).AppendString("injected")
	if _, err := VerifyCore(bc, f.trust, identity.Untrusted); err == nil {
		t.Error("code tampering not detected")
	}
}

func TestVerifyCoreUnsigned(t *testing.T) {
	f := newFixture(t, "h1")
	bc := briefcase.New()
	bc.Ensure(briefcase.FolderCode).AppendString("code")
	if _, err := VerifyCore(bc, f.trust, identity.Untrusted); err == nil {
		t.Error("unsigned core verified")
	}
	// Principal present but no signature folder.
	bc.SetString(briefcase.FolderSysPrincipal, "alice")
	if _, err := VerifyCore(bc, f.trust, identity.Untrusted); err == nil {
		t.Error("missing signature verified")
	}
}

func TestInboundTransferAuth(t *testing.T) {
	fx := newFixture(t)
	fx.config = func(c *Config) { c.RequireAuth = true }
	fx.addHost("h1")
	fx.addHost("h2")
	fw1, fw2 := fx.sites["h1"].fw, fx.sites["h2"].fw

	sender, _ := fw1.Register("vm_go", "alice", "sender")
	vm2, _ := fw2.Register("vm_go", "system", "vm_go")

	mkTransfer := func(sign *identity.Principal) *briefcase.Briefcase {
		bc := briefcase.New()
		bc.SetString(briefcase.FolderSysTarget, "tacoma://h2/system/vm_go")
		bc.SetString(FolderKind, KindTransfer)
		bc.Ensure(briefcase.FolderCode).AppendString("agent body")
		if sign != nil {
			SignCore(bc, sign)
		}
		return bc
	}

	// Signed by a trusted principal: accepted.
	if err := fw1.Send(sender.GlobalURI(), mkTransfer(fx.alice)); err != nil {
		t.Fatal(err)
	}
	if _, err := vm2.Recv(2 * time.Second); err != nil {
		t.Fatalf("signed transfer not delivered: %v", err)
	}

	// Unsigned: rejected, auth failure counted, error report returned.
	if err := fw1.Send(sender.GlobalURI(), mkTransfer(nil)); err != nil {
		t.Fatal(err)
	}
	rep, err := sender.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("no rejection report: %v", err)
	}
	if Kind(rep) != KindError {
		t.Errorf("report kind = %q", Kind(rep))
	}
	if fw2.Stats().AuthFailures != 1 {
		t.Errorf("h2 stats = %+v", fw2.Stats())
	}

	// Signed by an unknown principal: rejected.
	if err := fw1.Send(sender.GlobalURI(), mkTransfer(fx.mal)); err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Recv(2 * time.Second); err != nil {
		t.Fatalf("no rejection report for unknown principal: %v", err)
	}
	if fw2.Stats().AuthFailures != 2 {
		t.Errorf("h2 stats = %+v", fw2.Stats())
	}
	if _, ok := vm2.TryRecv(); ok {
		t.Error("unauthenticated transfer delivered")
	}
}
