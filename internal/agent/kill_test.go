package agent_test

import (
	"errors"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
)

// TestKillEndsEveryWait: a blocking call without a timeout is abandoned
// by ending its registration. Each kind of wait — Await, a Meet whose
// target never answers, a ReceiveStream whose stream never completes —
// returns ErrKilled once the firewall's kill management op, sent the way
// taxctl sends it, names the waiting agent.
func TestKillEndsEveryWait(t *testing.T) {
	cases := []struct {
		name  string
		sends bool // the wait first sends a request to system/silent
		wait  func(*agent.Context) error
	}{
		{"await", false, func(c *agent.Context) error {
			_, err := c.Await(0)
			return err
		}},
		{"meet", true, func(c *agent.Context) error {
			_, err := c.Meet("system/silent", briefcase.New(), 0)
			return err
		}},
		{"receive stream", false, func(c *agent.Context) error {
			_, err := c.ReceiveStream("never", 0)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			admin := f.ctx(t, "admin")
			silent := f.ctx(t, "silent") // registered, never replies
			waiter := f.ctx(t, "waiter")
			done := make(chan error, 1)
			go func() { done <- tc.wait(waiter) }()

			if tc.sends {
				// The request reaching the silent target shows the Meet
				// has sent and is waiting for its reply.
				if _, err := silent.Await(5 * time.Second); err != nil {
					t.Fatalf("request never reached the target: %v", err)
				}
			}
			select {
			case err := <-done:
				t.Fatalf("wait returned before the kill: %v", err)
			case <-time.After(20 * time.Millisecond):
			}

			req := briefcase.New()
			req.SetString(firewall.FolderKind, firewall.KindManagement)
			req.SetString(firewall.FolderOp, firewall.OpKill)
			req.SetString(firewall.FolderArg, "system/waiter")
			if _, err := admin.Meet("tacoma://h1/system/"+firewall.FirewallName, req, 5*time.Second); err != nil {
				t.Fatalf("kill: %v", err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, firewall.ErrKilled) {
					t.Fatalf("err = %v, want ErrKilled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("wait outlived its agent's kill")
			}
		})
	}
}
