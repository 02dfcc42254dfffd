package vm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/telemetry"
	"tax/internal/uri"
)

// DefaultArch is the architecture tag used by simulated hosts unless
// configured otherwise (the paper's testbed was Unix workstations of one
// architecture; multi-architecture selection is exercised in tests).
const DefaultArch = "sparc-sunos5"

var (
	// ErrNoBinaryForArch is returned when a briefcase carries no binary
	// matching the local architecture.
	ErrNoBinaryForArch = errors.New("vm: no binary for local architecture")
	// ErrBinaryMismatch is returned when a carried binary image differs
	// from the locally deployed image of the same name — the carried
	// code is not the code this host trusts.
	ErrBinaryMismatch = errors.New("vm: carried binary differs from deployed binary")
	// ErrNotDeployed is returned when a binary is not in the local store.
	ErrNotDeployed = errors.New("vm: binary not deployed on this host")
)

// Binary is one executable image: a manifest (name, architecture,
// version), the simulated binary bytes that travel in briefcases, and the
// pre-deployed handler that actually runs. Handler is nil on images that
// merely travel (e.g. freshly "compiled" ones) — execution always
// resolves the local store's handler.
type Binary struct {
	Name    string
	Arch    string
	Version string
	Payload []byte
	Handler Handler
}

// Manifest renders the "name|arch|version|sha256" element that precedes
// the payload element in a BINARIES folder.
func (b Binary) Manifest() string {
	sum := sha256.Sum256(b.Payload)
	return strings.Join([]string{b.Name, b.Arch, b.Version, fmt.Sprintf("%x", sum[:8])}, "|")
}

// parseManifest splits a manifest element.
func parseManifest(s string) (name, arch, version string, err error) {
	parts := strings.Split(s, "|")
	if len(parts) != 4 {
		return "", "", "", fmt.Errorf("vm: bad binary manifest %q", s)
	}
	return parts[0], parts[1], parts[2], nil
}

// PackBinaries appends binaries to the briefcase's BINARIES folder as
// manifest/payload element pairs. An agent "may submit a list of binaries
// matching different architectures" (§5); ag_exec and vm_bin extract the
// one matching the local machine.
func PackBinaries(bc *briefcase.Briefcase, bins ...Binary) {
	f := bc.Ensure(briefcase.FolderBinaries)
	for _, b := range bins {
		f.AppendString(b.Manifest())
		f.Append(b.Payload)
	}
}

// UnpackBinaries parses a BINARIES folder back into carried images
// (Handler is nil: handlers never travel).
func UnpackBinaries(bc *briefcase.Briefcase) ([]Binary, error) {
	f, err := bc.Folder(briefcase.FolderBinaries)
	if err != nil {
		return nil, err
	}
	if f.Len()%2 != 0 {
		return nil, fmt.Errorf("vm: BINARIES folder has odd element count %d", f.Len())
	}
	out := make([]Binary, 0, f.Len()/2)
	for i := 0; i < f.Len(); i += 2 {
		m, err := f.Element(i)
		if err != nil {
			return nil, err
		}
		name, arch, version, err := parseManifest(m.String())
		if err != nil {
			return nil, err
		}
		payload, err := f.Element(i + 1)
		if err != nil {
			return nil, err
		}
		out = append(out, Binary{Name: name, Arch: arch, Version: version, Payload: payload})
	}
	return out, nil
}

// SelectBinary picks the carried binary matching the given architecture.
func SelectBinary(bins []Binary, arch string) (Binary, error) {
	for _, b := range bins {
		if b.Arch == arch {
			return b, nil
		}
	}
	return Binary{}, fmt.Errorf("%w: %s", ErrNoBinaryForArch, arch)
}

// BinaryStore is a host's deployed-binary inventory, keyed by (name,
// arch). It is the reproduction's stand-in for native code mobility: the
// image bytes travel in briefcases, but execution resolves the local
// deployment and requires the carried image to be bit-identical to it.
type BinaryStore struct {
	mu sync.RWMutex
	m  map[string]Binary
}

func storeKey(name, arch string) string { return name + "\x00" + arch }

// Deploy installs a binary on the host.
func (s *BinaryStore) Deploy(b Binary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]Binary)
	}
	s.m[storeKey(b.Name, b.Arch)] = b
}

// Resolve looks up a deployed binary.
func (s *BinaryStore) Resolve(name, arch string) (Binary, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.m[storeKey(name, arch)]
	return b, ok
}

// Execute verifies a carried image against the deployment and returns the
// deployed handler: the image must exist locally and be bit-identical.
func (s *BinaryStore) Execute(carried Binary) (Handler, error) {
	dep, ok := s.Resolve(carried.Name, carried.Arch)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotDeployed, carried.Name, carried.Arch)
	}
	if !bytes.Equal(dep.Payload, carried.Payload) {
		return nil, fmt.Errorf("%w: %s/%s", ErrBinaryMismatch, carried.Name, carried.Arch)
	}
	if dep.Handler == nil {
		return nil, fmt.Errorf("%w: %s/%s has no handler", ErrNotDeployed, carried.Name, carried.Arch)
	}
	return dep.Handler, nil
}

// SyntheticImage generates the deterministic simulated binary bytes for a
// program: every host deploying the same (name, arch, version, size)
// holds an identical image, and the toy compiler regenerates the same
// bytes, so carried and deployed images match exactly when — and only
// when — they denote the same program.
func SyntheticImage(name, arch, version string, size int) []byte {
	seedSum := sha256.Sum256([]byte(name + "\x00" + arch + "\x00" + version))
	out := make([]byte, size)
	var counter [8]byte
	for off := 0; off < size; off += sha256.Size {
		binary.BigEndian.PutUint64(counter[:], uint64(off))
		block := sha256.Sum256(append(seedSum[:], counter[:]...))
		copy(out[off:], block[:])
	}
	return out
}

// BinConfig parameterizes a BinVM.
type BinConfig struct {
	// Name is the VM's registration name; default "vm_bin".
	Name string
	// FW is the local firewall. Required.
	FW *firewall.Firewall
	// Arch is the local machine architecture; default DefaultArch.
	Arch string
	// Store is the host's deployed-binary inventory. Required.
	Store *BinaryStore
	// Trust is consulted for the §3.3 rule: vm_bin executes a binary
	// only when its core is "signed by a trusted principal". Required.
	Trust *identity.TrustStore
	// Signer signs outgoing transfers (moving binary agents onward).
	Signer *identity.Principal
	// SpawnTimeout bounds the spawn handshake; zero means 10 seconds.
	SpawnTimeout time.Duration
	// Trace receives instrumentation events.
	Trace func(event string)
	// OnAgentDone is called as each hosted agent finishes.
	OnAgentDone func(name string, err error)
	// PreLaunch runs on the agent goroutine before the handler (wrapper
	// installation); an error aborts the activation.
	PreLaunch func(ctx *agent.Context) error
}

// BinVM executes signed native binaries resolved against the local store.
type BinVM struct {
	cfg BinConfig
	reg *firewall.Registration

	// ctrActivated/ctrRejected count activations; histResolve times the
	// verify/unpack/select/store-check pipeline an arriving binary passes
	// through (nil unless detailed telemetry is on).
	ctrActivated *telemetry.Counter
	ctrRejected  *telemetry.Counter
	ctrSigned    *telemetry.Counter // vm.core_signed, see signCore
	histResolve  *telemetry.Histogram

	mu     sync.Mutex
	agents map[uint64]*firewall.Registration
	closed bool

	wg sync.WaitGroup
}

var _ agent.Mover = (*BinVM)(nil)

// NewBin registers a BinVM with the firewall and starts its control loop.
func NewBin(cfg BinConfig) (*BinVM, error) {
	if cfg.FW == nil {
		return nil, errors.New("vm: bin config needs a firewall")
	}
	if cfg.Store == nil {
		return nil, errors.New("vm: bin config needs a binary store")
	}
	if cfg.Trust == nil {
		return nil, errors.New("vm: bin config needs a trust store")
	}
	if cfg.Name == "" {
		cfg.Name = "vm_bin"
	}
	if cfg.Arch == "" {
		cfg.Arch = DefaultArch
	}
	if cfg.SpawnTimeout == 0 {
		cfg.SpawnTimeout = 10 * time.Second
	}
	reg, err := cfg.FW.Register(cfg.Name, cfg.FW.SystemPrincipal(), cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("vm: register %s: %w", cfg.Name, err)
	}
	v := &BinVM{cfg: cfg, reg: reg, agents: make(map[uint64]*firewall.Registration)}
	tel := cfg.FW.Telemetry()
	mreg := tel.Registry()
	v.ctrActivated = mreg.Counter("vm.activated", "host", cfg.FW.HostName(), "vm", cfg.Name)
	v.ctrRejected = mreg.Counter("vm.rejected", "host", cfg.FW.HostName(), "vm", cfg.Name)
	v.ctrSigned = coreSignedCounter(cfg.FW, cfg.Name)
	if tel.Detailed() {
		v.histResolve = mreg.Histogram("vm.resolve", "host", cfg.FW.HostName(), "vm", cfg.Name)
	}
	v.wg.Add(1)
	go v.loop(reg)
	return v, nil
}

// Name returns the VM's registration name.
func (v *BinVM) Name() string { return v.cfg.Name }

// registration returns the VM's current firewall registration (replaced
// by Reattach after a host crash).
func (v *BinVM) registration() *firewall.Registration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.reg
}

// Reattach re-registers the VM after a host crash wiped every
// registration and restarts its control loop; in-flight agents are gone
// with the wipe.
func (v *BinVM) Reattach() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	v.mu.Unlock()
	reg, err := v.cfg.FW.Register(v.cfg.Name, v.cfg.FW.SystemPrincipal(), v.cfg.Name)
	if err != nil {
		return fmt.Errorf("vm: reattach %s: %w", v.cfg.Name, err)
	}
	v.mu.Lock()
	v.reg = reg
	v.agents = make(map[uint64]*firewall.Registration)
	v.mu.Unlock()
	v.wg.Add(1)
	go v.loop(reg)
	return nil
}

// URI returns the VM's routable URI.
func (v *BinVM) URI() uri.URI { return v.registration().GlobalURI() }

// Arch returns the local architecture tag.
func (v *BinVM) Arch() string { return v.cfg.Arch }

func (v *BinVM) trace(format string, args ...any) {
	if v.cfg.Trace != nil {
		v.cfg.Trace(v.cfg.Name + ": " + fmt.Sprintf(format, args...))
	}
}

func (v *BinVM) loop(self *firewall.Registration) {
	defer v.wg.Done()
	for {
		bc, err := self.Recv(0)
		if err != nil {
			return
		}
		if firewall.Kind(bc) == firewall.KindTransfer {
			v.acceptTransfer(self, bc)
		}
	}
}

func (v *BinVM) acceptTransfer(self *firewall.Registration, bc *briefcase.Briefcase) {
	sender, _ := bc.GetString(briefcase.FolderSysSender)
	msgID, hasMsgID := bc.GetString(firewall.FolderMsgID)
	reject := func(reason string) {
		v.trace("rejected: %s", reason)
		v.ctrRejected.Inc()
		if sender == "" {
			return
		}
		report := briefcase.New()
		report.SetString(briefcase.FolderSysTarget, sender)
		report.SetString(firewall.FolderKind, firewall.KindError)
		report.SetString(briefcase.FolderSysError, reason)
		if hasMsgID {
			report.SetString(firewall.FolderReplyTo, msgID)
		}
		_ = v.cfg.FW.Send(self.GlobalURI(), report)
	}

	var t0 time.Time
	if v.histResolve != nil {
		t0 = time.Now()
	}
	// §3.3: execute "provided the binary is signed by a trusted
	// principal". The signature covers the BINARIES folder, so a swapped
	// image also fails here. Where the firewall's RequireAuth already
	// verified this core at admission, its stamp spares the second hash
	// and the trust store's cache the second ed25519; the signer's key
	// and its Trusted level are still read live.
	principal, err := firewall.VerifyCore(bc, v.cfg.Trust, identity.Trusted)
	if err != nil {
		reject(fmt.Sprintf("signature: %v", err))
		return
	}
	bins, err := UnpackBinaries(bc)
	if err != nil {
		reject(fmt.Sprintf("binaries: %v", err))
		return
	}
	carried, err := SelectBinary(bins, v.cfg.Arch)
	if err != nil {
		reject(err.Error())
		return
	}
	handler, err := v.cfg.Store.Execute(carried)
	if err != nil {
		reject(err.Error())
		return
	}
	if v.histResolve != nil {
		v.histResolve.Observe(time.Since(t0))
	}

	name, ok := bc.GetString(FolderAgentName)
	if !ok {
		name = carried.Name
	}
	spawned := bc.Has(agent.FolderSpawn)
	scrubTransferFolders(bc)

	reg, err := v.run(principal, name, handler, bc)
	if err != nil {
		reject(err.Error())
		return
	}
	v.trace("activated %s (binary %s/%s)", reg.URI(), carried.Name, carried.Arch)
	if spawned && hasMsgID && sender != "" {
		reply := briefcase.New()
		reply.SetString(briefcase.FolderSysTarget, sender)
		reply.SetString(firewall.FolderReplyTo, msgID)
		reply.SetString(agent.FolderInstance, fmt.Sprintf("%x", reg.URI().Instance))
		_ = v.cfg.FW.Send(self.GlobalURI(), reply)
	}
}

// Launch starts a deployed binary directly (the local system starting an
// agent, not a migration): the local architecture's image is added to
// the briefcase — alongside any images for other architectures the
// caller packed (§5: agents may carry several) — and the core is signed
// by the configured signer so onward moves keep working.
func (v *BinVM) Launch(principal, name, binaryName string, bc *briefcase.Briefcase) (*firewall.Registration, error) {
	dep, ok := v.cfg.Store.Resolve(binaryName, v.cfg.Arch)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotDeployed, binaryName, v.cfg.Arch)
	}
	if bc == nil {
		bc = briefcase.New()
	}
	if bc.Has(briefcase.FolderBinaries) {
		carried, err := UnpackBinaries(bc)
		if err != nil {
			return nil, err
		}
		if cur, err := SelectBinary(carried, v.cfg.Arch); err == nil {
			// The caller already packed a local-architecture image; it
			// must be the deployed one.
			if _, execErr := v.cfg.Store.Execute(cur); execErr != nil {
				return nil, execErr
			}
		} else {
			PackBinaries(bc, dep)
		}
	} else {
		PackBinaries(bc, dep)
	}
	if v.cfg.Signer != nil && principal == v.cfg.Signer.Name() {
		signCore(bc, v.cfg.Signer, v.ctrSigned)
	}
	return v.run(principal, name, dep.Handler, bc)
}

func (v *BinVM) run(principal, name string, handler Handler, bc *briefcase.Briefcase) (*firewall.Registration, error) {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil, ErrClosed
	}
	v.mu.Unlock()
	reg, err := v.cfg.FW.Register(v.cfg.Name, principal, name)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	v.agents[reg.URI().Instance] = reg
	v.mu.Unlock()

	ctx := agent.NewContext(v.cfg.FW, reg, bc, v, nil)
	v.ctrActivated.Inc()
	v.wg.Add(1)
	go func() {
		defer v.wg.Done()
		sp := v.execSpan(bc, name)
		var err error
		if v.cfg.PreLaunch != nil {
			err = v.cfg.PreLaunch(ctx)
		}
		if err == nil {
			err = runHandler(handler, ctx)
		}
		if err != nil && !errors.Is(err, agent.ErrMoved) {
			sp.SetErr(err)
		}
		sp.End()
		// Wrapper finalizers run before the registration is torn down so
		// they can still communicate on the agent's behalf.
		ctx.Finish(err)
		v.mu.Lock()
		delete(v.agents, reg.URI().Instance)
		v.mu.Unlock()
		v.cfg.FW.Unregister(reg)
		if v.cfg.OnAgentDone != nil {
			v.cfg.OnAgentDone(name, err)
		}
	}()
	return reg, nil
}

// execSpan mirrors GoVM.execSpan for binary activations.
func (v *BinVM) execSpan(bc *briefcase.Briefcase, name string) *telemetry.Span {
	spans := v.cfg.FW.Telemetry().Spans()
	if spans == nil {
		return nil
	}
	trace, ok := bc.GetString(briefcase.FolderSysTrace)
	if !ok {
		return nil
	}
	parent, _ := bc.GetString(briefcase.FolderSysSpan)
	sp := spans.Start(v.cfg.FW.Clock(), v.cfg.FW.HostName(), trace, parent, "vm.exec")
	sp.SetAttr("vm", v.cfg.Name)
	sp.SetAttr("program", name)
	bc.SetString(briefcase.FolderSysSpan, sp.ID())
	return sp
}

// Move implements agent.Mover for binary agents: the BINARIES folder
// already carries the images, so the briefcase is forwarded as it is,
// re-signed (signTransfer) only if its core changed since it was last
// signed or verified.
func (v *BinVM) Move(c *agent.Context, dest uri.URI, spawn bool) (uint64, error) {
	if dest.Name == "" {
		dest.Name = v.cfg.Name
	}
	out := c.Briefcase()
	if spawn {
		out = out.Clone()
	}
	out.SetString(firewall.FolderKind, firewall.KindTransfer)
	out.SetString(FolderAgentName, c.Registration().URI().Name)
	out.SetString(briefcase.FolderSysTarget, dest.String())
	var msgID string
	if spawn {
		msgID = agent.NextMsgID()
		out.SetString(agent.FolderSpawn, "1")
		out.SetString(firewall.FolderMsgID, msgID)
	}
	signTransfer(out, c.Registration().URI().Principal, v.cfg.Signer, v.ctrSigned)
	if err := c.Activate(dest.String(), out); err != nil {
		scrubTransferFolders(out)
		out.Drop(FolderAgentName)
		return 0, err
	}
	if !spawn {
		return 0, nil
	}
	reply, err := c.AwaitReply(msgID, v.cfg.SpawnTimeout)
	if err != nil {
		return 0, fmt.Errorf("vm: spawn reply: %w", err)
	}
	instStr, ok := reply.GetString(agent.FolderInstance)
	if !ok {
		return 0, errors.New("vm: spawn reply lacks instance")
	}
	var inst uint64
	if _, err := fmt.Sscanf(instStr, "%x", &inst); err != nil {
		return 0, fmt.Errorf("vm: spawn reply instance: %w", err)
	}
	return inst, nil
}

// Close kills hosted agents, unregisters the VM and waits.
func (v *BinVM) Close() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil
	}
	v.closed = true
	regs := make([]*firewall.Registration, 0, len(v.agents))
	for _, r := range v.agents {
		regs = append(regs, r)
	}
	v.mu.Unlock()
	for _, r := range regs {
		v.cfg.FW.Unregister(r)
	}
	v.cfg.FW.Unregister(v.registration())
	v.wg.Wait()
	return nil
}
