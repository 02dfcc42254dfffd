package linkmine

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tax/internal/briefcase"
)

// FolderTask tags each fleet agent's briefcase with its task id so the
// collector can attribute — and deduplicate — deliveries: the transport
// is at-least-once under retries, the aggregate must count each scan
// exactly once.
const FolderTask = "TASK"

// TaskResult is one agent's aggregated scan outcome.
type TaskResult struct {
	// ID is the task id from the TASK folder ("" on Totals).
	ID string
	// Pages, Bytes, Links are the crawl stats summed over CRAWLS rows
	// (or the single-server CRAWL folder).
	Pages, Bytes, Links int
	// DeadLinks counts condensed RESULTS rows plus raw INVALID reports.
	DeadLinks int
	// Rejected counts raw REJECTED (out-of-prefix) reports.
	Rejected int
	// Elapsed is the virtual time the scan consumed on its server —
	// the crawl's intrinsic cost, independent of what other fleet
	// agents did to shared clocks, and therefore deterministic.
	Elapsed time.Duration
	// Skipped lists itinerary stops the agent recorded unreachable.
	Skipped []string
}

// Aggregator is the collector-side fan-in for a fleet of concurrent
// mwWebbot agents: deliveries keyed by the TASK folder aggregate
// exactly once, no matter how duplicated, late, or out of order they
// arrive. Totals are computed over tasks sorted by id, so the same set
// of deliveries yields the same report in any arrival order.
type Aggregator struct {
	mu        sync.Mutex
	seen      map[string]bool
	tasks     map[string]TaskResult
	dups      int
	malformed int
}

// NewAggregator creates an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{seen: make(map[string]bool), tasks: make(map[string]TaskResult)}
}

// Add ingests one delivered briefcase. It returns the task id and
// whether the delivery was fresh; duplicates and briefcases without a
// TASK folder are counted and otherwise ignored.
func (a *Aggregator) Add(bc *briefcase.Briefcase) (string, bool) {
	id, ok := bc.GetString(FolderTask)
	if !ok {
		a.mu.Lock()
		a.malformed++
		a.mu.Unlock()
		return "", false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.seen[id] {
		a.dups++
		return id, false
	}
	a.seen[id] = true
	a.tasks[id] = parseTaskResult(id, bc)
	return id, true
}

// parseTaskResult reads the crawl evidence out of a delivered
// briefcase: the itinerant shape (CRAWLS rows + condensed RESULTS) and
// the single-server shape (CRAWL + raw INVALID/REJECTED reports).
func parseTaskResult(id string, bc *briefcase.Briefcase) TaskResult {
	tr := TaskResult{ID: id}
	if f, err := bc.Folder("CRAWLS"); err == nil {
		for _, row := range f.Strings() {
			parts := strings.Split(row, "|") // host|pages|bytes|links|elapsed
			if len(parts) < 4 {
				continue
			}
			tr.addCrawl(parts[1:])
		}
	}
	if row, ok := bc.GetString(FolderCrawl); ok {
		parts := strings.Split(row, "|") // pages|bytes|links|elapsed
		if len(parts) >= 3 {
			tr.addCrawl(parts)
		}
	}
	if f, err := bc.Folder(briefcase.FolderResults); err == nil {
		tr.DeadLinks += f.Len()
	}
	if f, err := bc.Folder(FolderInvalid); err == nil {
		tr.DeadLinks += f.Len()
	}
	if f, err := bc.Folder(FolderRejected); err == nil {
		tr.Rejected += f.Len()
	}
	if f, err := bc.Folder("SKIPPED"); err == nil {
		tr.Skipped = append(tr.Skipped, f.Strings()...)
	}
	return tr
}

func (tr *TaskResult) addCrawl(parts []string) {
	pages, _ := strconv.Atoi(parts[0])
	bytes, _ := strconv.Atoi(parts[1])
	links, _ := strconv.Atoi(parts[2])
	tr.Pages += pages
	tr.Bytes += bytes
	tr.Links += links
	if len(parts) >= 4 {
		ns, _ := strconv.ParseInt(parts[3], 10, 64)
		tr.Elapsed += time.Duration(ns)
	}
}

// Task returns one task's aggregated result.
func (a *Aggregator) Task(id string) (TaskResult, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	tr, ok := a.tasks[id]
	return tr, ok
}

// Tasks returns the per-task results sorted by task id.
func (a *Aggregator) Tasks() []TaskResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TaskResult, 0, len(a.tasks))
	for _, tr := range a.tasks {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Totals sums every task's result; iteration is over the sorted task
// list so the aggregate (including the Skipped order) is deterministic.
func (a *Aggregator) Totals() TaskResult {
	var tot TaskResult
	for _, tr := range a.Tasks() {
		tot.Pages += tr.Pages
		tot.Bytes += tr.Bytes
		tot.Links += tr.Links
		tot.DeadLinks += tr.DeadLinks
		tot.Rejected += tr.Rejected
		tot.Elapsed += tr.Elapsed
		tot.Skipped = append(tot.Skipped, tr.Skipped...)
	}
	sort.Strings(tot.Skipped)
	return tot
}

// Duplicates reports how many duplicate deliveries were dropped.
func (a *Aggregator) Duplicates() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dups
}

// malformedCount reports how many deliveries lacked a TASK folder.
func (a *Aggregator) malformedCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.malformed
}

// FleetOptions parameterizes a fleet run.
type FleetOptions struct {
	// Agents is the number of single-server itineraries to launch;
	// zero means one per server. Agent i scans server i mod K, so
	// Agents > K queues scans per server.
	Agents int
}

// FleetReport is one fleet run's outcome.
type FleetReport struct {
	Agents int
	// Totals over every completed scan.
	PagesVisited int
	BytesFetched int
	LinksChecked int
	DeadLinks    int
	// Duplicates is how many duplicate deliveries the collector dropped.
	Duplicates int
	// Skipped lists stops recorded unreachable (sorted).
	Skipped []string
	// PerTask is each task's intrinsic virtual cost, in task order.
	// List-scheduled onto W workers (frontier.Schedule(PerTask, nil, W,
	// 0)) they give the fleet's virtual makespan at that pool width: the
	// summed scan time at one worker, roughly W-fold less at W. Computed
	// from virtual costs, it is deterministic and meaningful even on a
	// single-core host, where wall-clock speedup is unavailable by
	// construction.
	PerTask []time.Duration
	// LinkBytes is the traffic between hosts attributable to the run.
	LinkBytes int64
}

// RunFleet scans the servers with a fleet of single-server mwWebbot
// itineraries: each agent carries the Webbot binary to one server,
// scans it there, and returns its condensed results to the client,
// where a single collector fans every delivery into an exactly-once
// Aggregator. Each server's agents run one after another, on one
// goroutine per server, so a scan never shares its server and its cost
// is its own.
func (d *Deployment) RunFleet(opts FleetOptions) (*FleetReport, error) {
	agents := opts.Agents
	if agents <= 0 {
		agents = len(d.Servers)
	}
	bytesBefore := d.linkBytes()

	agg := NewAggregator()
	done := make(map[string]chan struct{}, agents)
	taskID := func(i int) string { return fmt.Sprintf("task-%d", i) }
	for i := 0; i < agents; i++ {
		done[taskID(i)] = make(chan struct{})
	}
	// One collector loops over all deliveries; the aggregator drops
	// duplicates, the done channels wake the waiting tasks.
	fresh := 0
	if err := d.collect(func(bc *briefcase.Briefcase) bool {
		if id, ok := agg.Add(bc); ok {
			fresh++
			if ch, exists := done[id]; exists {
				close(ch)
			}
		}
		return fresh == agents
	}); err != nil {
		return nil, err
	}

	errs := make([]error, len(d.Servers))
	var wg sync.WaitGroup
	for s, server := range d.Servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s; i < agents && errs[s] == nil; i += len(d.Servers) {
				id := taskID(i)
				bc := d.itinerary(server.Name)
				bc.SetString(FolderTask, id)
				if _, err := d.Client.VM.Launch(d.Sys.SystemPrincipal.Name(), "mwWebbot-"+id, MultiProgram, bc); err != nil {
					errs[s] = err
					break
				}
				select {
				case <-done[id]:
				case <-time.After(scanTimeout):
					errs[s] = fmt.Errorf("linkmine: fleet task %s timed out", id)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	tot := agg.Totals()
	rep := &FleetReport{
		Agents:       agents,
		PagesVisited: tot.Pages,
		BytesFetched: tot.Bytes,
		LinksChecked: tot.Links,
		DeadLinks:    tot.DeadLinks,
		Duplicates:   agg.Duplicates(),
		Skipped:      tot.Skipped,
		PerTask:      make([]time.Duration, agents),
		LinkBytes:    d.linkBytes() - bytesBefore,
	}
	for i := range rep.PerTask {
		// A task's cost is its scan's intrinsic elapsed time, carried
		// home in its CRAWLS row: it depends only on the (seeded) site
		// and the crawl, not on how other agents advanced shared
		// clocks, so the makespan is deterministic.
		tr, _ := agg.Task(taskID(i))
		rep.PerTask[i] = tr.Elapsed
	}
	return rep, nil
}
