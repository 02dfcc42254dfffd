package firewall

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/vclock"
)

// durableFixture is the standard fixture with a cabinet store wired
// into every host's firewall.
func durableFixture(t *testing.T, hosts ...string) (*fixture, map[string]*cabinet.Store) {
	t.Helper()
	stores := make(map[string]*cabinet.Store)
	f := newFixture(t)
	f.config = func(c *Config) {
		st := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual()})
		stores[c.HostName] = st
		c.Durable = st
	}
	for _, h := range hosts {
		f.addHost(h)
	}
	return f, stores
}

// TestRecoveredParkDeliversToReregisteredService: a message parked for
// a service that dies in a host crash must, after the host restarts and
// the service re-registers, be delivered from the journal instead of
// being silently lost.
func TestRecoveredParkDeliversToReregisteredService(t *testing.T) {
	f, stores := durableFixture(t, "h1")
	fw := f.sites["h1"].fw

	sender, err := fw.Register("vm_go", "alice", "sender")
	if err != nil {
		t.Fatal(err)
	}
	send(t, fw, sender, "later", "survive me")
	if fw.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 parked message", fw.Pending())
	}
	if got := len(stores["h1"].Keys("fwpark/")); got != 1 {
		t.Fatalf("journal holds %d park records, want 1", got)
	}

	fw.CrashWipe()
	if fw.Pending() != 0 {
		t.Fatalf("pending = %d after crash wipe, want 0", fw.Pending())
	}

	// Boot order on restart: services re-register first, then the
	// journal replays — so the recovered park delivers immediately.
	later, err := fw.Register("vm_go", "alice", "later")
	if err != nil {
		t.Fatal(err)
	}
	if n := fw.RecoverDurable(); n != 1 {
		t.Fatalf("RecoverDurable() = %d, want 1", n)
	}
	if body := recvBody(t, later, 2*time.Second); body != "survive me" {
		t.Fatalf("recovered body = %q", body)
	}
	if got := len(stores["h1"].Keys("fwpark/")); got != 0 {
		t.Fatalf("journal still holds %d park records after delivery", got)
	}
}

// TestRecoveredParkExpiresWithTypedErrorEnvelope: a journaled park
// whose addressee never comes back must not linger forever — after the
// restart it re-arms its timeout and expires through the standard typed
// error-envelope path, so the remote sender still learns the fate of
// its message.
func TestRecoveredParkExpiresWithTypedErrorEnvelope(t *testing.T) {
	f, _ := durableFixture(t, "h1", "h2")
	fw1 := f.sites["h1"].fw
	fw2 := f.sites["h2"].fw

	sender, err := fw1.Register("vm_go", "alice", "sender")
	if err != nil {
		t.Fatal(err)
	}
	send(t, fw1, sender, "tacoma://h2/alice/ghost", "anyone there?")
	deadline := time.Now().Add(2 * time.Second)
	for fw2.Pending() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("message never parked on h2 (pending=%d)", fw2.Pending())
		}
		time.Sleep(time.Millisecond)
	}

	fw2.CrashWipe()
	if n := fw2.RecoverDurable(); n != 1 {
		t.Fatalf("RecoverDurable() = %d, want 1", n)
	}
	// Nothing re-registers "ghost": the recovered park must expire on
	// its fresh timer and report back across the network.
	rep, err := sender.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("no expiry report after recovery: %v", err)
	}
	if Kind(rep) != KindError {
		t.Fatalf("report kind = %q, want error envelope", Kind(rep))
	}
	if msg, _ := rep.GetString(briefcase.FolderSysError); !strings.Contains(msg, "expired") {
		t.Fatalf("report = %q, want queue-timeout expiry", msg)
	}
}

// TestJournalDedupAllocs: once every slot's record exists, journaling a
// hash allocates only the cabinet table's copy of its value — no key
// string and no op slice per delivery. The keys are the ones earlier
// journals used, "fwdedup/<slot>", and building a window's keys costs
// two allocations, not one a slot.
func TestJournalDedupAllocs(t *testing.T) {
	keys := dedupKeys(1000)
	for i, k := range keys {
		if want := dedupKeyPrefix + strconv.Itoa(i); k != want {
			t.Fatalf("slot %d key %q, want %q", i, k, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { dedupKeys(256) }); n > 2 {
		t.Errorf("dedupKeys(256): %.0f allocs, want at most 2", n)
	}

	const window = 16
	f := newFixture(t)
	f.config = func(c *Config) {
		c.Durable = cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual(), SnapshotEvery: -1})
		c.DedupWindow = window
	}
	fw := f.addHost("h1").fw
	for slot := 0; slot < window; slot++ {
		fw.journalDedup(slot, uint64(slot))
	}
	sum := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		sum++
		fw.journalDedup(int(sum%window), sum)
	}); n > 1 {
		t.Errorf("journalDedup: %.0f allocs per journaled hash, want at most 1", n)
	}
}

// TestDedupJournalSeedsAfterRecovery: hashes observed before the crash
// are journaled and re-seeded by RecoverDurable, so a frame duplicated
// across the crash boundary is still suppressed.
func TestDedupJournalSeedsAfterRecovery(t *testing.T) {
	stores := make(map[string]*cabinet.Store)
	f := newFixture(t)
	f.config = func(c *Config) {
		st := cabinet.NewStore(cabinet.Options{Clock: vclock.NewVirtual()})
		stores[c.HostName] = st
		c.Durable = st
		c.DedupWindow = 16
	}
	site := f.addHost("h1")
	fw := site.fw

	payload := []byte("frame: byte-identical retransmission")
	if fw.dedup.observe(payload) {
		t.Fatal("first observation reported duplicate")
	}
	if got := len(stores["h1"].Keys("fwdedup/")); got != 1 {
		t.Fatalf("journal holds %d dedup records, want 1", got)
	}

	fw.CrashWipe()
	fw.RecoverDurable()
	if !fw.dedup.observe(payload) {
		t.Fatal("recovered window failed to suppress the pre-crash frame")
	}
	if fw.dedup.observe([]byte("unrelated")) {
		t.Fatal("recovered window reported duplicate for a new payload")
	}
}
