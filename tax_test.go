package tax_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tax"
)

// TestPublicFacadeItinerary drives the README's quickstart through the
// public API only: deployment, program deployment, itinerary, results.
func TestPublicFacadeItinerary(t *testing.T) {
	sys, err := tax.NewSystem(tax.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	for _, h := range []string{"h1", "h2"} {
		if _, err := sys.AddNode(h, tax.NodeOptions{NoCVM: true}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan []string, 1)
	sys.DeployProgram("tour", func(ctx *tax.Context) error {
		bc := ctx.Briefcase()
		bc.Ensure(tax.FolderResults).AppendString(ctx.Host())
		hosts, err := bc.Folder(tax.FolderHosts)
		if err != nil {
			return err
		}
		for {
			next, ok := hosts.Pop()
			if !ok {
				res, err := bc.Folder(tax.FolderResults)
				if err != nil {
					return err
				}
				done <- res.Strings()
				return nil
			}
			if err := ctx.Go(next.String()); errors.Is(err, tax.ErrMoved) {
				return err
			}
		}
	})

	bc := tax.NewBriefcase()
	bc.Ensure(tax.FolderHosts).AppendString("tacoma://h2//vm_go")
	n1, err := sys.Node("h1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n1.VM.Launch(sys.SystemPrincipal.Name(), "tourist", "tour", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case visited := <-done:
		if strings.Join(visited, ",") != "h1,h2" {
			t.Errorf("visited %v", visited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("facade itinerary stalled")
	}
}

// TestPublicURIHelpers sanity-checks the re-exported URI API.
func TestPublicURIHelpers(t *testing.T) {
	u, err := tax.ParseURI("tacoma://h1/system/ag_fs:2a")
	if err != nil {
		t.Fatal(err)
	}
	if u.Host != "h1" || u.Principal != "system" || u.Name != "ag_fs" || u.Instance != 0x2a {
		t.Errorf("parsed %+v", u)
	}
}

// TestPublicSiteGeneration sanity-checks the re-exported web substrate.
func TestPublicSiteGeneration(t *testing.T) {
	site, err := tax.GenerateSite(tax.CaseStudySite("w"))
	if err != nil {
		t.Fatal(err)
	}
	if site.PagesWithinDepth(4) != 917 {
		t.Errorf("pages = %d", site.PagesWithinDepth(4))
	}
}

// TestPublicTypedErrorsAndOptions proves the redesigned façade end to
// end: a node configured through NodeOptions (including batched
// mediation) runs an agent whose cross-host RPC failure classifies with
// errors.Is — the error crossed the wire as a KindError briefcase yet
// still matches tax.ErrNoSuchFile.
func TestPublicTypedErrorsAndOptions(t *testing.T) {
	sys, err := tax.NewSystem(tax.LAN100)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	if _, err := sys.AddNode("home", tax.NodeOptions{NoCVM: true}); err != nil {
		t.Fatal(err)
	}
	edge, err := sys.AddNode("edge", tax.NodeOptions{
		NoCVM:       true,
		DedupWindow: 256,
		Batch:       &tax.BatchConfig{MaxFrames: 1, FlushEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if edge.CVM != nil {
		t.Error("NoCVM did not take")
	}

	type verdict struct {
		typed   bool   // errors.Is(err, tax.ErrNoSuchFile) across the wire
		errText string // for diagnostics
	}
	done := make(chan verdict, 1)
	sys.DeployProgram("probe", func(ctx *tax.Context) error {
		var v verdict
		req := tax.NewBriefcase()
		req.SetString("_SVCOP", "get")
		req.SetString("_PATH", "/no/such/checkpoint")
		_, err := ctx.MeetDirect("tacoma://home//ag_fs", req, 5*time.Second)
		v.typed = errors.Is(err, tax.ErrNoSuchFile)
		if err != nil {
			v.errText = err.Error()
		}
		done <- v
		return nil
	})
	bc := tax.NewBriefcase()
	if _, err := edge.VM.Launch(sys.SystemPrincipal.Name(), "probe1", "probe", bc); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if !v.typed {
			t.Errorf("remote ag_fs miss did not classify as ErrNoSuchFile (err: %s)", v.errText)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("probe agent stalled")
	}
}

// TestPublicWrapperStack drives wrapper stacking through the façade.
func TestPublicWrapperStack(t *testing.T) {
	s := tax.NewWrapperStack()
	if s.Depth() != 0 {
		t.Errorf("empty stack depth %d", s.Depth())
	}
}
