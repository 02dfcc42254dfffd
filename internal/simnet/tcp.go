package simnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

const (
	// maxFrame bounds the size of a single TCP frame (64 MiB), matching the
	// briefcase decode limits.
	maxFrame = 1 << 26
	// readBufSize is a connection's read buffer: the largest field a
	// header holds (a 65,535-byte sender) fits, and so does any burst of
	// small frames the kernel hands over in one read.
	readBufSize = 64 << 10
	// eagerPayload is the most a frame header's word alone can make the
	// reader allocate; a longer payload earns its memory as it arrives.
	eagerPayload = 1 << 20
)

// errFrameSize is wrapped by Send when a frame cannot be expressed on
// the wire: the payload exceeds maxFrame (the receiver would drop the
// connection) or the sender address overflows its uint16 length.
var errFrameSize = errors.New("simnet: frame exceeds wire limits")

// TCPNode implements Node over real TCP sockets with length-prefixed
// frames. It backs cmd/taxd, letting several OS processes run TAX nodes
// that agents migrate between. Peers are addressed by "host:port".
//
// Connections are opened lazily per peer and reused; inbound connections
// are served until EOF. The frame format is:
//
//	addrLen uint16 | senderAddr bytes | payloadLen uint32 | payload
type TCPNode struct {
	addr     string
	listener net.Listener

	handlerMu sync.RWMutex
	handler   func(from string, payload []byte)

	connMu  sync.Mutex
	conns   map[string]*frameWriter
	inbound map[net.Conn]bool

	// ctx ends at Close: Send refuses, serving loops exit, and a dial in
	// flight is abandoned rather than waited for.
	ctx       context.Context
	cancel    context.CancelFunc
	closeOnce sync.Once
	wg        sync.WaitGroup
}

var _ Node = (*TCPNode)(nil)

// ListenTCP starts a node listening on addr ("host:port"; ":0" picks a
// free port — read the effective address back with Addr).
func ListenTCP(addr string) (*TCPNode, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("simnet: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		addr:     l.Addr().String(),
		listener: l,
		conns:    make(map[string]*frameWriter),
		inbound:  make(map[net.Conn]bool),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *TCPNode) Addr() string { return n.addr }

// SetHandler installs the delivery callback.
func (n *TCPNode) SetHandler(h func(from string, payload []byte)) {
	n.handlerMu.Lock()
	defer n.handlerMu.Unlock()
	n.handler = h
}

// Send delivers payload to the peer listening at to ("host:port"). A
// frame the wire format cannot carry fails here, before any byte is
// written.
func (n *TCPNode) Send(to string, payload []byte) error {
	if n.ctx.Err() != nil {
		return ErrClosed
	}
	w, err := n.conn(to)
	if err != nil {
		return err
	}
	if err := w.writeFrame(payload); err != nil {
		if !errors.Is(err, errFrameSize) {
			// Drop the cached connection; a retry will redial.
			n.dropConn(to, w)
		}
		return fmt.Errorf("simnet: send to %s: %w", to, err)
	}
	return nil
}

// conn returns the cached connection to a peer, dialing one if there is
// none. The dial runs outside connMu, so a peer that never answers
// stalls only the senders addressing it — not sends to other peers, and
// not Close. Of two senders racing to dial the same peer, the loser
// closes its connection and uses the winner's.
func (n *TCPNode) conn(to string) (*frameWriter, error) {
	n.connMu.Lock()
	w := n.conns[to]
	n.connMu.Unlock()
	if w != nil {
		return w, nil
	}
	var d net.Dialer
	c, err := d.DialContext(n.ctx, "tcp", to)
	if err != nil {
		if n.ctx.Err() != nil {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrUnknownHost, to, err)
	}
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.ctx.Err() != nil {
		// Close has already swept the table; it will not see this one.
		_ = c.Close()
		return nil, ErrClosed
	}
	if w := n.conns[to]; w != nil {
		_ = c.Close()
		return w, nil
	}
	w, err = newFrameWriter(c, n.addr)
	if err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("simnet: send to %s: %w", to, err)
	}
	n.conns[to] = w
	return w, nil
}

func (n *TCPNode) dropConn(to string, w *frameWriter) {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.conns[to] == w {
		delete(n.conns, to)
	}
	_ = w.dst.Close()
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.listener.Accept()
		if err != nil {
			if n.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		n.wg.Add(1)
		go n.serve(c)
	}
}

func (n *TCPNode) serve(c net.Conn) {
	defer n.wg.Done()
	n.connMu.Lock()
	n.inbound[c] = true
	n.connMu.Unlock()
	defer func() {
		n.connMu.Lock()
		delete(n.inbound, c)
		n.connMu.Unlock()
		_ = c.Close()
	}()
	fr := newFrameReader(c)
	for {
		from, payload, err := fr.next()
		if err != nil {
			return
		}
		n.handlerMu.RLock()
		h := n.handler
		n.handlerMu.RUnlock()
		if h != nil {
			h(from, payload)
		}
		if n.ctx.Err() != nil {
			return
		}
	}
}

// Close stops the listener and all connections, then waits for serving
// goroutines to exit.
func (n *TCPNode) Close() error {
	n.closeOnce.Do(func() {
		n.cancel()
		_ = n.listener.Close()
		n.connMu.Lock()
		for _, w := range n.conns {
			_ = w.dst.Close()
		}
		n.conns = map[string]*frameWriter{}
		// Inbound connections must be closed too, or serve goroutines
		// stay blocked reading live peers and Close never returns.
		for c := range n.inbound {
			_ = c.Close()
		}
		n.connMu.Unlock()
	})
	n.wg.Wait()
	return nil
}

// frameWriter is the sending half of one connection. Every frame this
// node sends carries the same sender, so the header is built once and
// only its payload-length word changes; header and payload then leave
// together as one vectored write (writev on a TCP connection), with no
// joined copy and no allocation. Measured against Write of a joined
// buffer on loopback the two tie at 500 B and writev is twice as fast at
// 1 MiB (EXPERIMENTS E13).
type frameWriter struct {
	dst io.WriteCloser

	mu  sync.Mutex // one frame at a time: concurrent senders never interleave
	hdr []byte     // addrLen | sender | payloadLen
	arr [2][]byte  // backing store for vec, which WriteTo consumes
	vec net.Buffers
}

func newFrameWriter(dst io.WriteCloser, sender string) (*frameWriter, error) {
	if len(sender) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d-byte sender address", errFrameSize, len(sender))
	}
	hdr := make([]byte, 0, 2+len(sender)+4)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(sender)))
	hdr = append(hdr, sender...)
	return &frameWriter{dst: dst, hdr: hdr[:cap(hdr)]}, nil
}

func (w *frameWriter) writeFrame(payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: %d-byte payload, limit %d", errFrameSize, len(payload), maxFrame)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	binary.BigEndian.PutUint32(w.hdr[len(w.hdr)-4:], uint32(len(payload)))
	w.arr[0], w.arr[1] = w.hdr, payload
	w.vec = w.arr[:]
	_, err := w.vec.WriteTo(w.dst) // drops its reference to each buffer as it is written
	return err
}

// frameReader is the receiving half of one connection: a read buffer
// the frame header is parsed out of in place. One read takes whatever
// the kernel has, so a frame that arrives alone costs exactly one
// successful read(2), and a burst of small frames costs one for the lot.
type frameReader struct {
	src  io.Reader
	buf  []byte
	r, w int    // buf[r:w] is read but not yet parsed
	from string // the last frame's sender; a peer sends the same one every time
}

func newFrameReader(src io.Reader) *frameReader {
	return &frameReader{src: src, buf: make([]byte, readBufSize)}
}

// fill makes at least n (≤ readBufSize) unparsed bytes available. What
// is left of a previous read moves to the front first — less than one
// field, a few bytes — so the read that follows has the whole buffer to
// fill. The stream may end cleanly (io.EOF) only between frames: inside
// one, which is what mid says of every field after the first, it is
// io.ErrUnexpectedEOF.
func (fr *frameReader) fill(n int, mid bool) error {
	if fr.w-fr.r >= n {
		return nil
	}
	if fr.r > 0 {
		fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	got, err := io.ReadAtLeast(fr.src, fr.buf[fr.w:], n-fr.w)
	if err == io.EOF && (mid || fr.w > 0) {
		err = io.ErrUnexpectedEOF
	}
	fr.w += got
	return err
}

// next returns the next frame, or io.EOF when the stream ends between
// frames. A truncated stream yields an error, never a partial frame.
//
// The payload is a fresh slice the handler owns. It is deliberately not
// a reused per-connection buffer: briefcase.Decode aliases its input, so
// the decoded briefcase sitting in an agent's mailbox would be
// overwritten by the next frame.
func (fr *frameReader) next() (from string, payload []byte, err error) {
	if err := fr.fill(2, false); err != nil {
		return "", nil, err
	}
	addrLen := int(binary.BigEndian.Uint16(fr.buf[fr.r:]))
	fr.r += 2
	if err := fr.fill(addrLen, true); err != nil {
		return "", nil, err
	}
	if addr := fr.buf[fr.r : fr.r+addrLen]; string(addr) != fr.from {
		fr.from = string(addr)
	}
	fr.r += addrLen
	if err := fr.fill(4, true); err != nil {
		return "", nil, err
	}
	size := int(binary.BigEndian.Uint32(fr.buf[fr.r:]))
	fr.r += 4
	if size > maxFrame {
		return "", nil, fmt.Errorf("simnet: frame of %d bytes exceeds limit", size)
	}
	if size > len(fr.buf) {
		if payload, err = fr.large(size); err != nil {
			return "", nil, err
		}
		return fr.from, payload, nil
	}
	if err := fr.fill(size, true); err != nil {
		return "", nil, err
	}
	payload = make([]byte, size)
	fr.r += copy(payload, fr.buf[fr.r:])
	return fr.from, payload, nil
}

// large reads a payload bigger than the buffer straight into its own
// slice: the bytes already buffered are copied once, the rest never
// touch the buffer. The header's word is trusted for eagerPayload bytes
// only (channel auth has not seen this frame yet, and six bytes must not
// buy 64 MiB); past that the slice doubles as bytes actually arrive.
func (fr *frameReader) large(size int) ([]byte, error) {
	payload := make([]byte, min(size, eagerPayload))
	have := copy(payload, fr.buf[fr.r:fr.w])
	fr.r, fr.w = 0, 0
	for {
		if _, err := io.ReadFull(fr.src, payload[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if have = len(payload); have == size {
			return payload, nil
		}
		grown := make([]byte, min(size, 2*have))
		copy(grown, payload)
		payload = grown
	}
}
