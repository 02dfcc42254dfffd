package agent

import (
	"errors"
	"fmt"

	"tax/internal/briefcase"
)

// FolderSkipped records itinerary stops that could not be reached.
const FolderSkipped = "_SKIPPED"

// RunItinerary drives the figure-4 pattern for an agent handler: run
// visit on the current host, then move to the next stop in the
// briefcase's HOSTS folder, tolerating unreachable stops (they are
// recorded in the _SKIPPED folder and the itinerary continues). It
// returns ErrMoved after a successful move — the handler returns it up —
// and nil once the itinerary is exhausted on the final host.
//
//	sys.DeployProgram("tour", func(ctx *agent.Context) error {
//		return agent.RunItinerary(ctx, func(ctx *agent.Context) error {
//			// per-host work
//			return nil
//		})
//	})
func RunItinerary(c *Context, visit func(*Context) error) error {
	if visit != nil {
		if err := visit(c); err != nil {
			return err
		}
	}
	hosts, err := c.Briefcase().Folder(briefcase.FolderHosts)
	if err != nil {
		return fmt.Errorf("agent: itinerary: %w", err)
	}
	for {
		next, ok := hosts.Pop()
		if !ok {
			return nil // itinerary complete
		}
		err := c.Go(next.String())
		if errors.Is(err, ErrMoved) {
			return err
		}
		c.Briefcase().Ensure(FolderSkipped).AppendString(next.String())
	}
}

// Skipped returns the itinerary stops that were unreachable so far.
func Skipped(c *Context) []string {
	f, err := c.Briefcase().Folder(FolderSkipped)
	if err != nil {
		return nil
	}
	return f.Strings()
}
