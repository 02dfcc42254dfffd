package firewall

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tax/internal/briefcase"
	"tax/internal/uri"
)

var (
	// ErrKilled is returned from Recv after the agent has been killed.
	ErrKilled = errors.New("firewall: agent killed")
	// ErrRecvTimeout is returned when Recv's deadline expires.
	ErrRecvTimeout = errors.New("firewall: receive timeout")
	// ErrMailboxFull is returned when an agent's mailbox overflows.
	ErrMailboxFull = errors.New("firewall: mailbox full")
)

// State is an agent's lifecycle state as tracked by the firewall.
type State int

// Agent lifecycle states.
const (
	// StateRunning is the normal state.
	StateRunning State = iota + 1
	// StateStopped suspends the agent: Recv blocks until resumed.
	StateStopped
	// StateKilled is terminal.
	StateKilled
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	case StateKilled:
		return "killed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// mailboxSize bounds the per-agent inbox; senders to a full mailbox get
// ErrMailboxFull rather than blocking the firewall.
const mailboxSize = 256

// Registration is an agent's handle on its local firewall: its identity,
// mailbox and lifecycle. Virtual machines obtain one per agent they host
// and hand it to the agent library.
type Registration struct {
	fw  *Firewall
	uri uri.URI // fully specified: principal, name, instance
	vm  string  // name of the owning VM's registration

	mailbox chan *briefcase.Briefcase

	mu           sync.Mutex
	sender       []byte // GlobalURI().String(), rendered by the first send; immutable
	state        State
	resumed      chan struct{} // closed on resume; replaced on stop
	killed       chan struct{}
	registeredAt time.Duration // firewall virtual clock
}

// URI returns the agent's fully specified local identity.
func (r *Registration) URI() uri.URI { return r.uri }

// GlobalURI returns the agent's identity qualified with the firewall's
// host and port, routable from other hosts.
func (r *Registration) GlobalURI() uri.URI {
	return r.uri.WithHost(r.fw.cfg.HostName, r.fw.cfg.Port)
}

// senderStamp is the registration's _SENDER value. A registration's URI
// never changes, so it is rendered once, by the first send: one that
// only ever receives pays nothing. The bytes are never written again,
// so every send's _SENDER aliases them (Folder.AppendAlias). They stay
// out of the address intern table: a registration that sends once, like
// a touring agent's instance at each hop, must not spend a sighting.
func (r *Registration) senderStamp() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sender == nil {
		r.sender = []byte(r.GlobalURI().String())
	}
	return r.sender
}

// VM returns the name of the virtual machine hosting the agent.
func (r *Registration) VM() string { return r.vm }

// State returns the agent's current lifecycle state.
func (r *Registration) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// deliver enqueues a briefcase, failing when the mailbox is full or the
// agent is killed.
func (r *Registration) deliver(bc *briefcase.Briefcase) error {
	if r.State() == StateKilled {
		return ErrKilled
	}
	select {
	case r.mailbox <- bc:
		return nil
	default:
		return fmt.Errorf("%w: %s", ErrMailboxFull, r.uri)
	}
}

// Inject delivers a briefcase directly into the agent's mailbox without
// firewall mediation. It exists for the §3.3 optimization where a VM
// "may, for performance reasons, resolve internal communication without
// involving the firewall" for co-located agents. Callers are VMs only.
func (r *Registration) Inject(bc *briefcase.Briefcase) error {
	return r.deliver(bc)
}

// recvTimers recycles Recv's deadline timers: a receive with a
// timeout is one per message on an RPC client, and a fresh timer is three
// allocations.
var recvTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// Recv blocks until a briefcase arrives, the timeout expires (zero means
// wait forever), or the agent is killed. While the agent is stopped,
// arrived briefcases are held and Recv does not return until resumed.
func (r *Registration) Recv(timeout time.Duration) (*briefcase.Briefcase, error) {
	var deadline <-chan time.Time
	if timeout > 0 {
		t := recvTimers.Get().(*time.Timer)
		t.Reset(timeout)
		defer func() {
			// Since Go 1.23 Stop leaves no stale value in t.C, so a
			// stopped timer goes back to the pool as it is.
			t.Stop()
			recvTimers.Put(t)
		}()
		deadline = t.C
	}
	for {
		r.mu.Lock()
		state, resumed, killed := r.state, r.resumed, r.killed
		r.mu.Unlock()
		// Honor a stop before looking at the mailbox: a stopped agent's
		// mail waits, and only a resume (or kill) ends the wait.
		mailbox := r.mailbox
		switch state {
		case StateKilled:
			return nil, fmt.Errorf("%w: %s", ErrKilled, r.uri)
		case StateStopped:
			mailbox = nil
		default:
			resumed = nil
		}
		select {
		case bc := <-mailbox:
			return bc, nil
		case <-resumed:
		case <-killed:
			return nil, fmt.Errorf("%w: %s", ErrKilled, r.uri)
		case <-deadline:
			return nil, fmt.Errorf("%w: %s", ErrRecvTimeout, r.uri)
		}
	}
}

// TryRecv returns a waiting briefcase without blocking; ok is false when
// the mailbox is empty.
func (r *Registration) TryRecv() (*briefcase.Briefcase, bool) {
	select {
	case bc := <-r.mailbox:
		return bc, true
	default:
		return nil, false
	}
}

// Done returns a channel closed when the agent is killed; agents select
// on it to observe management kills while computing.
func (r *Registration) Done() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.killed
}

// stop suspends the agent.
func (r *Registration) stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == StateRunning {
		r.state = StateStopped
		r.resumed = make(chan struct{})
	}
}

// resume reverses stop.
func (r *Registration) resume() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == StateStopped {
		r.state = StateRunning
		close(r.resumed)
	}
}

// kill transitions to the terminal state and wakes blocked receivers.
func (r *Registration) kill() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateKilled {
		if r.state == StateStopped {
			close(r.resumed)
		}
		r.state = StateKilled
		close(r.killed)
	}
}
