package vm

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/identity"
	"tax/internal/telemetry"
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

// imageKey names one synthetic image; images memoises them per process.
type imageKey struct {
	name, arch, version string
	size                int
}

var images sync.Map // imageKey -> []byte

// maxImageBytes bounds the memo: ag_exec compiles images for whatever
// program names and architectures its requests carry, so past this many
// kept bytes a miss is built and returned but not kept.
const maxImageBytes = 64 << 20

var imageBytes atomic.Int64 // bytes of the misses offered to the memo

// SyntheticImage returns the deterministic simulated binary bytes for a
// program: every host deploying the same (name, arch, version, size)
// holds an identical image, and the toy compiler regenerates the same
// bytes, so carried and deployed images match exactly when — and only
// when — they denote the same program. Each image is built once per
// process (until the memo holds maxImageBytes) and then lent to every
// caller: the bytes are shared and read-only, and a caller that wants to
// change them copies them first.
func SyntheticImage(name, arch, version string, size int) []byte {
	key := imageKey{name, arch, version, size}
	if img, ok := images.Load(key); ok {
		return img.([]byte)
	}
	// Each block hashes seed ‖ offset from one buffer: the seed half is
	// written once and only the offset changes.
	var in [sha256.Size + 8]byte
	seed := sha256.Sum256([]byte(name + "\x00" + arch + "\x00" + version))
	copy(in[:], seed[:])
	out := make([]byte, size)
	for off := 0; off < size; off += sha256.Size {
		binary.BigEndian.PutUint64(in[sha256.Size:], uint64(off))
		block := sha256.Sum256(in[:])
		copy(out[off:], block[:])
	}
	if imageBytes.Add(int64(size)) > maxImageBytes {
		return out
	}
	img, _ := images.LoadOrStore(key, out)
	return img.([]byte)
}

// BinConfig parameterizes a BinVM.
type BinConfig struct {
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
	// PreLaunch runs on the agent goroutine before the handler (wrapper
	// installation); an error aborts the activation.
	PreLaunch func(ctx *agent.Context) error
}

// BinVM executes signed native binaries resolved against the local
// store: its loader verifies the core, unpacks the carried images and
// runs the deployed handler of the one matching the local architecture.
type BinVM struct {
	*runtime
	arch  string
	store *BinaryStore
	trust *identity.TrustStore

	// histResolve times the verify/unpack/select/store-check pipeline an
	// arriving binary passes through (nil unless detailed telemetry is
	// on).
	histResolve *telemetry.Histogram
}

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
	v := &BinVM{
		runtime: newRuntime("vm_bin", cfg.FW, cfg.Signer),
		arch:    cmp.Or(cfg.Arch, DefaultArch),
		store:   cfg.Store,
		trust:   cfg.Trust,
	}
	v.load, v.preLaunch = v, cfg.PreLaunch
	if tel := cfg.FW.Telemetry(); tel.Detailed() {
		v.histResolve = tel.Registry().Histogram("vm.resolve", "host", cfg.FW.HostName(), "vm", v.name)
	}
	if err := v.open(v.loop); err != nil {
		return nil, err
	}
	return v, nil
}

// arrive loads a carried binary. The agent acts for the core's signer;
// its default name is the binary's.
func (v *BinVM) arrive(bc *briefcase.Briefcase) (activation, error) {
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
	principal, err := firewall.VerifyCore(bc, v.trust, identity.Trusted)
	if err != nil {
		return activation{}, fmt.Errorf("signature: %w", err)
	}
	bins, err := UnpackBinaries(bc)
	if err != nil {
		return activation{}, fmt.Errorf("binaries: %w", err)
	}
	carried, err := SelectBinary(bins, v.arch)
	if err != nil {
		return activation{}, err
	}
	h, err := v.store.Execute(carried)
	if err != nil {
		return activation{}, err
	}
	if v.histResolve != nil {
		v.histResolve.Observe(time.Since(t0))
	}
	return activation{principal, agentName(bc, carried.Name), carried.Name, h}, nil
}

// prepare starts a deployed binary directly (the local system starting
// an agent, not a migration): the local architecture's image is added to
// the briefcase, alongside any images for other architectures the caller
// packed (§5: agents may carry several). A local-architecture image the
// caller packed must be the deployed one.
func (v *BinVM) prepare(binaryName string, bc *briefcase.Briefcase) (Handler, error) {
	dep, ok := v.store.Resolve(binaryName, v.arch)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotDeployed, binaryName, v.arch)
	}
	if bc.Has(briefcase.FolderBinaries) {
		carried, err := UnpackBinaries(bc)
		if err != nil {
			return nil, err
		}
		if cur, err := SelectBinary(carried, v.arch); err == nil {
			_, err := v.store.Execute(cur)
			return dep.Handler, err
		}
	}
	PackBinaries(bc, dep)
	return dep.Handler, nil
}
