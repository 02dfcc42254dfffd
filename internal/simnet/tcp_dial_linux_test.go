package simnet

import (
	"errors"
	"net"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// blackHole returns a loopback address whose connects hang: a socket
// listening with a zero backlog that nobody accepts from, its accept
// queue filled, so the kernel drops every further SYN. It skips the test
// where the kernel will not play along.
func blackHole(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Skipf("socket: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Skipf("bind: %v", err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Skipf("listen: %v", err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Skipf("getsockname: %v", err)
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(sa.(*syscall.SockaddrInet4).Port))
	for i := 0; i < 8; i++ {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return addr // the queue is full: this dial hung until its timeout
		}
		t.Cleanup(func() { _ = c.Close() })
	}
	t.Skip("the kernel kept accepting connections past a zero backlog")
	return ""
}

// TestTCPDialDoesNotBlockOtherPeers: a peer that never answers the dial
// stalls only the sender addressing it. A send to a healthy peer goes
// through meanwhile, Close returns without waiting for the dial, and the
// stalled sender is released with ErrClosed.
func TestTCPDialDoesNotBlockOtherPeers(t *testing.T) {
	dead := blackHole(t)
	a, b := newTCPPair(t)
	got := make(chan struct{}, 1)
	b.SetHandler(func(string, []byte) { got <- struct{}{} })

	stalled := make(chan error, 1)
	go func() { stalled <- a.Send(dead, []byte("into the void")) }()
	time.Sleep(50 * time.Millisecond) // let the dial start; the test holds either way

	healthy := make(chan error, 1)
	go func() { healthy <- a.Send(b.Addr(), []byte("hello")) }()
	select {
	case err := <-healthy:
		if err != nil {
			t.Fatalf("send to the healthy peer: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("send to a healthy peer waited on another peer's dial")
	}
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("healthy peer never received the frame")
	}

	closed := make(chan struct{})
	go func() { _ = a.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close waited on a dial in flight")
	}
	select {
	case err := <-stalled:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("stalled send returned %v, want ErrClosed", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not release the sender stalled in its dial")
	}
}
