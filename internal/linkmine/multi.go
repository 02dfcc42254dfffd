package linkmine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/core"
	"tax/internal/services"
	"tax/internal/vm"
	"tax/internal/webbot"
)

// MultiProgram is the itinerant mwWebbot: the §5 extension the paper
// sketches, "if we were to check all the servers at the university
// campus (the whole uit.no domain) ... Webbot needs to be run several
// times, and preferably relocated to a new host between each
// execution."
const MultiProgram = "mw_webbot_multi"

// reasonExternal marks the itinerant's second-pass rows in RESULTS.
const reasonExternal = "invalid-ext"

// itinerary is the itinerant agent's briefcase: the carried Webbot and
// a tour of the stops, ending at the client.
func (d *Deployment) itinerary(stops ...string) *briefcase.Briefcase {
	bc := d.carry()
	hosts := bc.Ensure(briefcase.FolderHosts)
	for _, s := range stops {
		hosts.AppendString("tacoma://" + s + "//vm_go")
	}
	hosts.AppendString("tacoma://" + clientHost + "//vm_go")
	return bc
}

// itinerant is the multi-server mwWebbot: at each server on the HOSTS
// itinerary it executes the carried binary, validates rejected links,
// accumulates condensed results in RESULTS, and finally delivers at
// home.
func (d *Deployment) itinerant(n *core.Node) vm.Handler {
	return func(ctx *agent.Context) error {
		bc := ctx.Briefcase()
		if ctx.Host() == clientHost && bc.Has(briefcase.FolderResults) {
			// Home with results: deliver.
			return ctx.Activate(CollectorName, bc.Clone())
		}
		if site := d.siteOn(ctx.Host()); site != nil {
			// Scan this server via ag_exec.
			req := bc.Clone()
			req.SetString(services.FolderOp, "exec")
			resp, err := ctx.Meet("ag_exec", req, 60*time.Second)
			if err != nil {
				return fmt.Errorf("mwWebbotMulti: ag_exec on %s: %w", ctx.Host(), err)
			}
			if e, ok := resp.GetString(briefcase.FolderSysError); ok {
				return errors.New("mwWebbotMulti: " + e)
			}
			// Second pass from here, then condense into RESULTS.
			results := bc.Ensure(briefcase.FolderResults)
			if f, err := resp.Folder(FolderInvalid); err == nil {
				for _, row := range f.Strings() {
					results.AppendString(ctx.Host() + "|" + row)
				}
			}
			if f, err := resp.Folder(FolderRejected); err == nil && f.Len() > 0 {
				deadExt, err := webbot.ValidateLinks(checker(site, n.Host.Clock()), decodeReports(f.Strings()))
				if err != nil {
					return err
				}
				for _, r := range deadExt {
					results.AppendString(ctx.Host() + "|" + r.URL + "|" + r.Referrer + "|" +
						strconv.Itoa(r.Status) + "|" + reasonExternal)
				}
			}
			if crawl, ok := resp.GetString(FolderCrawl); ok {
				bc.Ensure("CRAWLS").AppendString(ctx.Host() + "|" + crawl)
			}
		}
		// Move on, skipping unreachable stops (failure tolerance along
		// the itinerary; the last stop is always the client).
		hosts, err := bc.Folder(briefcase.FolderHosts)
		if err != nil {
			return err
		}
		for {
			next, ok := hosts.Pop()
			if !ok {
				return errors.New("mwWebbotMulti: itinerary exhausted remotely")
			}
			if err := ctx.Go(next.String()); errors.Is(err, agent.ErrMoved) {
				return err
			}
			bc.Ensure("SKIPPED").AppendString(next.String())
		}
	}
}

// RunMobileMulti launches one itinerant agent around every server and
// waits for it to deliver at home.
func (d *Deployment) RunMobileMulti() (*Report, error) {
	clock := d.Client.Host.Clock()
	bytesBefore := d.linkBytes()
	start := clock.Now()
	stops := make([]string, len(d.Servers))
	for i, s := range d.Servers {
		stops[i] = s.Name
	}
	result, err := d.launch("mwWebbotMulti", MultiProgram, d.itinerary(stops...))
	if err != nil {
		return nil, err
	}
	tr := parseTaskResult("", result)
	rep := &Report{
		Mode:         "mobile",
		PagesVisited: tr.Pages,
		BytesFetched: tr.Bytes,
		TotalElapsed: clock.Now() - start,
		Skipped:      tr.Skipped,
	}
	if f, err := result.Folder(briefcase.FolderResults); err == nil {
		rows := f.Strings()
		for i, row := range rows {
			_, rows[i], _ = strings.Cut(row, "|") // host|url|referrer|status|reason
		}
		for _, r := range decodeReports(rows) {
			if r.Reason == reasonExternal {
				rep.InvalidExternal = append(rep.InvalidExternal, r)
			} else {
				rep.InvalidInternal = append(rep.InvalidInternal, r)
			}
		}
	}
	rep.LinkBytes = d.linkBytes() - bytesBefore
	return rep, nil
}
