package wrapper_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/group"
	"tax/internal/wrapper"
)

// TestGroupWrapperTotalOrder runs a three-member total-order group with
// two concurrent senders; every member — including the sequencer — must
// deliver the identical sequence.
func TestGroupWrapperTotalOrder(t *testing.T) {
	s := newSystem(t, "h1", "h2", "h3")
	const groupName = "board"
	const perSender = 4
	total := 2 * perSender

	type result struct {
		self string
		msgs []string
	}
	results := make(chan result, 3)
	// Senders wait until every member has installed its group wrapper:
	// a message reaching a member before its boot briefcase would be
	// taken for the boot.
	var installed sync.WaitGroup
	installed.Add(3) // one per member below

	mkMember := func(sends bool, prefix string) func(ctx *agent.Context) error {
		return func(ctx *agent.Context) error {
			release := sync.OnceFunc(installed.Done)
			defer release()
			boot, err := ctx.Await(10 * time.Second)
			if err != nil {
				return err
			}
			ms, err := boot.Folder("MEMBERS")
			if err != nil {
				return err
			}
			g := &wrapper.Group{
				GroupName: groupName,
				Members:   ms.Strings(),
				Self:      ctx.URI().String(),
				Ordering:  group.Total,
			}
			if err := wrapper.NewStack(g).Install(ctx); err != nil {
				return err
			}
			release()
			if sends {
				installed.Wait()
				for i := 0; i < perSender; i++ {
					bc := briefcase.New()
					bc.SetString("BODY", prefix+string(rune('0'+i)))
					if err := ctx.Activate(groupName, bc); err != nil {
						return err
					}
				}
			}
			var got []string
			for len(got) < total {
				bc, err := ctx.Await(10 * time.Second)
				if err != nil {
					break
				}
				if body, ok := bc.GetString("BODY"); ok {
					got = append(got, body)
				}
			}
			results <- result{self: ctx.URI().String(), msgs: got}
			return nil
		}
	}

	// Member 1 (h1) is the sequencer and also a sender; member 3 also
	// sends; member 2 only listens.
	specs := []struct {
		host   string
		sends  bool
		prefix string
	}{
		{"h1", true, "a"},
		{"h2", false, ""},
		{"h3", true, "b"},
	}
	var regs []string
	for i, sp := range specs {
		n, _ := s.Node(sp.host)
		name := "gm" + string(rune('1'+i))
		n.Programs.Register(name, mkMember(sp.sends, sp.prefix))
		reg, err := n.VM.Launch("system", name, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg.GlobalURI().String())
	}
	for i, sp := range specs {
		n, _ := s.Node(sp.host)
		breg, err := n.FW.Register("test", "system", "b"+string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		boot := briefcase.New()
		boot.SetString(briefcase.FolderSysTarget, regs[i])
		boot.Ensure("MEMBERS").AppendString(regs...)
		if err := n.FW.Send(breg.GlobalURI(), boot); err != nil {
			t.Fatal(err)
		}
	}

	var sequences []result
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			sequences = append(sequences, r)
		case <-time.After(15 * time.Second):
			t.Fatalf("members stalled; have %d sequences", len(sequences))
		}
	}
	for _, r := range sequences {
		if len(r.msgs) != total {
			t.Fatalf("member %s delivered %d of %d: %v", r.self, len(r.msgs), total, r.msgs)
		}
	}
	first := strings.Join(sequences[0].msgs, ",")
	for _, r := range sequences[1:] {
		if got := strings.Join(r.msgs, ","); got != first {
			t.Errorf("total order disagreement:\n%s: %s\nvs: %s",
				r.self, got, first)
		}
	}
}
