// Package services implements the TAX service agents.
//
// In TAX, "resources other than memory and CPU time are handled by
// service agents" (§3.3): rather than growing the landing pad, hosts run
// ordinary (stationary) agents that answer briefcase RPCs. This package
// provides the service agents the paper names:
//
//   - ag_cc: the compile front-end of figure 3 — extracts carried source
//     and drives ag_exec.
//   - ag_exec: runs binaries and compilers on behalf of agents; the case
//     study's mwWebbot "uses the ag_exec service available at all TAX
//     sites to execute the Webbot binary" with architecture selection.
//   - ag_fs / ag_cabinet: file-system access, so agents never touch host
//     storage directly.
//   - ag_cron: periodic activation (the paper's URI examples show an
//     ag_cron running on cl2.cs.uit.no).
//   - ag_monitor: the monitoring endpoint the rwWebbot wrapper reports to.
//
// Every service follows the same shape: a vm.Handler that loops on
// Await, dispatches on the _OP folder, and Replies. Services are
// pre-deployed programs registered in the host's vm.Registry.
package services

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/cabinet"
	"tax/internal/firewall"
	"tax/internal/vm"
)

// Service protocol folders shared by all service agents.
const (
	// FolderOp selects the operation within a service.
	FolderOp = "_SVCOP"
	// FolderPath is a file path argument (ag_fs, ag_cabinet).
	FolderPath = "_PATH"
	// FolderData carries file contents or generic payload.
	FolderData = "_DATA"
	// FolderInterval is ag_cron's activation period in nanoseconds.
	FolderInterval = "_INTERVAL"
	// FolderCount is ag_cron's number of activations.
	FolderCount = "_COUNT"
)

// rpcTimeout bounds client-side service RPCs.
const rpcTimeout = 5 * time.Second

// Sentinel errors for the failure classes service agents report. They
// are registered as wire codes below, so a client on another host gets
// an errors.Is match against these same sentinels out of the reply
// briefcase — no string matching on reason text.
var (
	// ErrNoSuchFile: ag_fs / ag_cabinet get or del of an absent path.
	ErrNoSuchFile = errors.New("no such file")
	// ErrUnknownOp: the request's _SVCOP names no operation of the service.
	ErrUnknownOp = errors.New("unknown operation")
	// ErrBadRequest: the request is missing a required folder or carries
	// a malformed argument.
	ErrBadRequest = errors.New("bad request")
)

func init() {
	firewall.RegisterErrorCode("svc_no_such_file", ErrNoSuchFile)
	firewall.RegisterErrorCode("svc_unknown_op", ErrUnknownOp)
	firewall.RegisterErrorCode("svc_bad_request", ErrBadRequest)
}

// rpcErr folds a meet result into a single error: transport failures and
// remote error reports both surface. A reply carrying an error comes
// back as a *firewall.RemoteError, so errors.Is answers against the
// sentinel the service classified the failure as.
func rpcErr(resp *briefcase.Briefcase, err error) error {
	if err != nil {
		return err
	}
	if rerr, ok := firewall.RemoteErrorFrom(resp); ok {
		return rerr
	}
	return nil
}

// respondErr builds an error reply for a service request, stamping the
// registered wire code next to the reason so the requester can classify
// the failure with errors.Is.
func respondErr(ctx *agent.Context, req *briefcase.Briefcase, err error) {
	resp := briefcase.New()
	resp.SetString(firewall.FolderKind, firewall.KindError)
	firewall.SetError(resp, err)
	_ = ctx.Reply(req, resp)
}

// serveLoop runs a request/reply service until the agent is killed.
// handle returns the reply briefcase or an error to report.
func serveLoop(ctx *agent.Context, handle func(req *briefcase.Briefcase) (*briefcase.Briefcase, error)) error {
	for {
		req, err := ctx.Await(0)
		if err != nil {
			if errors.Is(err, firewall.ErrKilled) {
				return nil
			}
			return err
		}
		resp, err := handle(req)
		if err != nil {
			respondErr(ctx, req, err)
			continue
		}
		if resp == nil {
			continue // one-way request, no reply expected
		}
		if err := ctx.Reply(req, resp); err != nil {
			// The requester may have moved on; keep serving.
			continue
		}
	}
}

// CompileCost is the simulated CPU cost ag_exec charges per source byte
// when "running the compiler"; it stands in for gcc's run time.
const CompileCost = 200 * time.Nanosecond

// compileTimeout bounds ag_cc's wait for ag_exec's compile.
const compileTimeout = 30 * time.Second

// NewAgCC returns the ag_cc handler of figure 3: it extracts the code
// from the arriving briefcase (step 2), activates ag_exec with the code
// and the compiler as arguments (step 3), and returns the briefcase with
// the stored binary to its caller (step 6).
func NewAgCC() vm.Handler {
	return func(ctx *agent.Context) error {
		return serveLoop(ctx, func(req *briefcase.Briefcase) (*briefcase.Briefcase, error) {
			if !req.Has(briefcase.FolderCode) {
				return nil, fmt.Errorf("ag_cc: %w: request carries no CODE", ErrBadRequest)
			}
			// Step 3: ag_exec gets the same briefcase, which already
			// names the compiler and target architecture.
			fwd := req.Clone()
			fwd.Drop(firewall.FolderMsgID)
			fwd.Drop(firewall.FolderReplyTo)
			fwd.SetString(FolderOp, "compile")
			compiled, err := ctx.Meet("ag_exec", fwd, compileTimeout)
			if err != nil {
				return nil, fmt.Errorf("ag_cc: ag_exec: %w", err)
			}
			compiled.Drop(firewall.FolderReplyTo)
			return compiled, nil
		})
	}
}

// ExecConfig parameterizes an ag_exec service agent.
type ExecConfig struct {
	// Arch is the local machine architecture binaries must match.
	Arch string
	// Store is the host's deployed-binary inventory used to resolve and
	// verify execution requests.
	Store *vm.BinaryStore
}

// imageSize is the size of the synthetic images the toy compiler emits:
// 64 KiB, the carried Webbot-class binary of the case study.
const imageSize = 64 << 10

// ProgramName extracts the program a toy-C source denotes: the first
// line of the form "// program: <name>". The toy compiler is
// deterministic — same source, same binary — which is what lets
// pre-deployed handlers stand in for real code generation.
func ProgramName(source string) (string, error) {
	for _, line := range strings.Split(source, "\n") {
		line = strings.TrimSpace(line)
		if name, ok := strings.CutPrefix(line, "// program:"); ok {
			name = strings.TrimSpace(name)
			if name == "" {
				break
			}
			return name, nil
		}
	}
	return "", errors.New("ag_exec: source has no '// program:' directive")
}

// CompileBinary produces the deterministic binary image for a toy-C
// source targeting arch. Deployment-time registration uses the same
// function, so carried and deployed images are bit-identical.
func CompileBinary(source, arch string) (vm.Binary, error) {
	name, err := ProgramName(source)
	if err != nil {
		return vm.Binary{}, err
	}
	return vm.Binary{
		Name:    name,
		Arch:    arch,
		Version: "1.0",
		Payload: vm.SyntheticImage(name, arch, "1.0", imageSize),
	}, nil
}

// NewAgExec returns the ag_exec handler. Two operations:
//
//   - "compile" (figure 3 steps 4–5): run the named compiler over the
//     CODE folder and store the resulting binary in the briefcase.
//   - "exec" (the §5 case study): select the carried binary matching the
//     local architecture, verify it against the local deployment, run its
//     handler inline, and reply with the mutated briefcase.
func NewAgExec(cfg ExecConfig) vm.Handler {
	if cfg.Arch == "" {
		cfg.Arch = vm.DefaultArch
	}
	return func(ctx *agent.Context) error {
		return serveLoop(ctx, func(req *briefcase.Briefcase) (*briefcase.Briefcase, error) {
			op, _ := req.GetString(FolderOp)
			switch op {
			case "compile":
				source, ok := req.GetString(briefcase.FolderCode)
				if !ok {
					return nil, fmt.Errorf("ag_exec: %w: compile without CODE", ErrBadRequest)
				}
				arch := cfg.Arch
				if a, ok := req.GetString(vm.FolderArch); ok {
					arch = a
				}
				// Charge the simulated compiler run time.
				ctx.Charge(time.Duration(len(source)) * CompileCost)
				bin, err := CompileBinary(source, arch)
				if err != nil {
					return nil, err
				}
				resp := req.Clone()
				resp.Drop(FolderOp)
				resp.Drop(firewall.FolderMsgID)
				resp.Drop(briefcase.FolderBinaries)
				vm.PackBinaries(resp, bin)
				return resp, nil

			case "exec":
				if cfg.Store == nil {
					return nil, errors.New("ag_exec: no binary store on this host")
				}
				// With detailed telemetry on, split the request into
				// resolve (unpack/select/verify) and run time — the two
				// components of the execution-cost breakdown.
				tel := ctx.FW().Telemetry()
				var t0 time.Time
				if tel.Detailed() {
					t0 = time.Now()
				}
				bins, err := vm.UnpackBinaries(req)
				if err != nil {
					return nil, fmt.Errorf("ag_exec: %w", err)
				}
				carried, err := vm.SelectBinary(bins, cfg.Arch)
				if err != nil {
					return nil, err
				}
				handler, err := cfg.Store.Execute(carried)
				if err != nil {
					return nil, err
				}
				if tel.Detailed() {
					tel.Registry().Histogram("agexec.resolve", "host", ctx.Host()).Observe(time.Since(t0))
				}
				// The binary runs inline with the request briefcase as
				// its state; results land in its RESULTS folder.
				run := req.Clone()
				run.Drop(FolderOp)
				run.Drop(firewall.FolderMsgID)
				sub := agent.NewContext(ctxFirewall(ctx), ctx.Registration(), run, nil, nil)
				var t1 time.Time
				if tel.Detailed() {
					t1 = time.Now()
				}
				if err := handler(sub); err != nil {
					return nil, fmt.Errorf("ag_exec: %s: %w", carried.Name, err)
				}
				if tel.Detailed() {
					tel.Registry().Histogram("agexec.run", "host", ctx.Host()).Observe(time.Since(t1))
				}
				return run, nil

			default:
				return nil, fmt.Errorf("ag_exec: %w %q", ErrUnknownOp, op)
			}
		})
	}
}

// ctxFirewall recovers the firewall from a context via its registration;
// the inline-executed binary shares the service agent's identity.
func ctxFirewall(ctx *agent.Context) *firewall.Firewall { return ctx.FW() }

// NewAgFS returns the ag_fs handler: a per-host in-memory file store.
// Operations (FolderOp): "put" (FolderPath + FolderData), "get"
// (FolderPath), "list" (prefix in FolderPath), "del" (FolderPath).
// The §3.3 point is architectural — agents reach storage through a
// service agent rather than the VM — so a faithful in-memory store
// suffices.
func NewAgFS() vm.Handler {
	files := memFiles{}
	return func(ctx *agent.Context) error { return serveLoop(ctx, files.serve) }
}

// NewAgCabinet returns the ag_cabinet handler: the durable face of the
// host's file cabinet. It speaks ag_fs's protocol with the same reply
// shapes, but every put and del is a WAL-journaled cabinet transaction
// and reads return committed state — so files written here survive a
// host crash, while ag_fs files (a closure map, rebuilt on restart) do
// not. That split is the paper's file-cabinet contract: checkpoints and
// rear-guard state go through ag_cabinet precisely because it is the
// store that outlives the host.
func NewAgCabinet(store *cabinet.Store) vm.Handler {
	files := cabFiles{store}
	return func(ctx *agent.Context) error { return serveLoop(ctx, files.serve) }
}

// fileStore is the table a file service serves. Each implementation
// is one word and binds its service's name in serve, so a launch
// allocates what a hand-written handler would.
type fileStore interface {
	put(path string, data []byte) error
	get(path string) ([]byte, bool)
	del(path string) error
	// list appends every path beginning with prefix to f.
	list(prefix string, f *briefcase.Folder)
}

// memFiles is ag_fs's volatile table.
type memFiles map[string][]byte

func (m memFiles) put(path string, data []byte) error { m[path] = data; return nil }
func (m memFiles) get(path string) ([]byte, bool)     { d, ok := m[path]; return d, ok }
func (m memFiles) del(path string) error              { delete(m, path); return nil }
func (m memFiles) serve(req *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	return serveFile("ag_fs", m, req)
}
func (m memFiles) list(prefix string, f *briefcase.Folder) {
	for name := range m {
		if strings.HasPrefix(name, prefix) {
			f.AppendString(name)
		}
	}
}

// cabinetKeyPrefix namespaces ag_cabinet's files inside the host's
// cabinet store, away from the firewall's journal keys.
const cabinetKeyPrefix = "cab/"

// cabFiles is ag_cabinet's table: the host's cabinet under
// cabinetKeyPrefix.
type cabFiles struct{ store *cabinet.Store }

func (c cabFiles) put(path string, data []byte) error {
	return c.store.Put(cabinetKeyPrefix+path, data)
}
func (c cabFiles) get(path string) ([]byte, bool) { return c.store.Get(cabinetKeyPrefix + path) }
func (c cabFiles) del(path string) error          { return c.store.Delete(cabinetKeyPrefix + path) }
func (c cabFiles) serve(req *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	return serveFile("ag_cabinet", c, req)
}
func (c cabFiles) list(prefix string, f *briefcase.Folder) {
	for _, name := range c.store.Keys(cabinetKeyPrefix + prefix) {
		f.AppendString(name[len(cabinetKeyPrefix):])
	}
}

// serveFile answers one file-protocol request from files; svc prefixes
// its errors.
func serveFile(svc string, files fileStore, req *briefcase.Briefcase) (*briefcase.Briefcase, error) {
	op, _ := req.GetString(FolderOp)
	path, _ := req.GetString(FolderPath)
	resp := briefcase.New()
	switch op {
	case "put":
		f, err := req.Folder(FolderData)
		if err != nil {
			return nil, fmt.Errorf("%s: %w: put without data", svc, ErrBadRequest)
		}
		if path == "" {
			return nil, fmt.Errorf("%s: %w: put without path", svc, ErrBadRequest)
		}
		data, err := f.Element(0)
		if err != nil {
			return nil, err
		}
		if err := files.put(path, data); err != nil {
			return nil, fmt.Errorf("%s: %w", svc, err)
		}
		resp.SetString("OK", path)
	case "get":
		data, ok := files.get(path)
		if !ok {
			return nil, fmt.Errorf("%s: %w %q", svc, ErrNoSuchFile, path)
		}
		resp.Ensure(FolderData).Append(data)
	case "del":
		if _, ok := files.get(path); !ok {
			return nil, fmt.Errorf("%s: %w %q", svc, ErrNoSuchFile, path)
		}
		if err := files.del(path); err != nil {
			return nil, fmt.Errorf("%s: %w", svc, err)
		}
		resp.SetString("OK", path)
	case "list":
		files.list(path, resp.Ensure(FolderData))
	default:
		return nil, fmt.Errorf("%s: %w %q", svc, ErrUnknownOp, op)
	}
	return resp, nil
}

// NewAgCron returns the ag_cron handler: a request carries a target URI
// (FolderPath), an interval (FolderInterval, nanoseconds) and a count
// (FolderCount); ag_cron activates the target that many times. The
// request is acknowledged immediately; activations run asynchronously on
// the service's goroutine between requests.
func NewAgCron() vm.Handler {
	return func(ctx *agent.Context) error {
		type job struct {
			target   string
			payload  *briefcase.Briefcase
			interval time.Duration
			left     int
		}
		jobs := make(chan job, 16)
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-done:
					return
				case j := <-jobs:
					for ; j.left > 0; j.left-- {
						select {
						case <-done:
							return
						case <-time.After(j.interval):
						}
						tick := j.payload.Clone()
						_ = ctx.Activate(j.target, tick)
					}
				}
			}
		}()
		return serveLoop(ctx, func(req *briefcase.Briefcase) (*briefcase.Briefcase, error) {
			target, ok := req.GetString(FolderPath)
			if !ok {
				return nil, fmt.Errorf("ag_cron: %w: no target", ErrBadRequest)
			}
			intervalNS, ok := req.GetInt(FolderInterval)
			if !ok || intervalNS <= 0 {
				return nil, fmt.Errorf("ag_cron: %w: bad interval", ErrBadRequest)
			}
			count, ok := req.GetInt(FolderCount)
			if !ok || count <= 0 {
				return nil, fmt.Errorf("ag_cron: %w: bad count", ErrBadRequest)
			}
			payload := briefcase.New()
			payload.SetString("CRON", "tick")
			select {
			case jobs <- job{target: target, payload: payload, interval: time.Duration(intervalNS), left: int(count)}:
			default:
				return nil, errors.New("ag_cron: job queue full")
			}
			resp := briefcase.New()
			resp.SetString("OK", strconv.FormatInt(count, 10))
			return resp, nil
		})
	}
}

// MonitorEvent is one report received by ag_monitor.
type MonitorEvent struct {
	From    string
	Status  string
	Host    string
	Elapsed time.Duration
}

// NewAgMonitor returns the ag_monitor handler plus a channel of received
// events. rwWebbot-style wrappers report location and status here; a
// "query" op returns every status line seen so far.
func NewAgMonitor(buffer int) (vm.Handler, <-chan MonitorEvent) {
	if buffer <= 0 {
		buffer = 64
	}
	events := make(chan MonitorEvent, buffer)
	handler := func(ctx *agent.Context) error {
		var seen []string
		return serveLoop(ctx, func(req *briefcase.Briefcase) (*briefcase.Briefcase, error) {
			if op, _ := req.GetString(FolderOp); op == "query" {
				resp := briefcase.New()
				f := resp.Ensure(briefcase.FolderStatus)
				for _, s := range seen {
					f.AppendString(s)
				}
				return resp, nil
			}
			status, ok := req.GetString(briefcase.FolderStatus)
			if !ok {
				return nil, fmt.Errorf("ag_monitor: %w: report without STATUS", ErrBadRequest)
			}
			from, _ := req.GetString(briefcase.FolderSysSender)
			host, _ := req.GetString("HOST")
			seen = append(seen, host+": "+status)
			select {
			case events <- MonitorEvent{From: from, Status: status, Host: host, Elapsed: ctx.Now()}:
			default:
			}
			return nil, nil // reports are one-way
		})
	}
	return handler, events
}
