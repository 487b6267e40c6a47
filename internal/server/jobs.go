package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
)

// errCanceled is the cancellation cause installed by cancel; it becomes the
// failed job's Error field.
var errCanceled = errors.New("canceled by client request")

// JobState is the lifecycle state of an alignment job.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job kinds. The empty kind means KindAlign (records predate delta jobs).
const (
	KindAlign  = "align"
	KindDelta  = "delta"
	KindIngest = "ingest"
)

// JobRequest is the body of POST /jobs: the two knowledge-base files to
// align plus the alignment configuration. The zero configuration uses the
// paper's defaults, like core.Config.
type JobRequest struct {
	// KB1 and KB2 are paths to RDF files (.nt/.ttl, optionally .gz),
	// resolved on the server's filesystem.
	KB1 string `json:"kb1"`
	KB2 string `json:"kb2"`

	// Normalize selects literal normalization: "", "identity", "alphanum",
	// or "numeric".
	Normalize string `json:"normalize,omitempty"`

	Theta            float64 `json:"theta,omitempty"`
	MaxIterations    int     `json:"max_iterations,omitempty"`
	NegativeEvidence bool    `json:"negative_evidence,omitempty"`
	AllEqualities    bool    `json:"all_equalities,omitempty"`
	Workers          int     `json:"workers,omitempty"`
}

// DeltaRequest is the body of POST /v1/deltas: a batch of triple additions
// against a published base snapshot, to be re-aligned warm-started from that
// snapshot's state.
type DeltaRequest struct {
	// Base is the snapshot ID the delta applies to. Empty means the
	// snapshot currently served, resolved at submission time.
	Base string `json:"base,omitempty"`

	// KB selects which ontology the triples extend: "1" or "2".
	KB string `json:"kb"`

	// NTriples holds the delta inline as an N-Triples document. Exactly
	// one of NTriples and File must be set.
	NTriples string `json:"ntriples,omitempty"`

	// File is a server-side path to an N-Triples file holding the delta.
	File string `json:"file,omitempty"`

	MaxIterations int `json:"max_iterations,omitempty"`
	Workers       int `json:"workers,omitempty"`
}

// IngestProgress is the cumulative state of a streaming KB load: consumed
// blocks and bytes, parsed and skipped triples. A job record receives it at
// most once per MiB of input plus once with the load's final totals (or,
// when the load fails, its last block); see Server.loadProgress.
// Phase names the load the counters belong to — "kb1"/"kb2" for the two
// loads of an alignment job, the KB name for an upload validation — since
// a job's Ingest slot holds the *current* load: consumers watching an
// align job see the counters restart when the second KB begins, and Phase
// is what tells them that is a new load, not a glitch.
type IngestProgress struct {
	ingest.Progress
	Phase string `json:"phase,omitempty"`
}

// UploadRecord is the submission of a KB ingest job (POST /v1/kbs): a dump
// streamed into the server's spool, to be validated through the parallel
// ingest pipeline and committed into the KB directory.
type UploadRecord struct {
	// Name is the caller-chosen KB name; the committed file is
	// <state>/kbs/<name><format>.
	Name string `json:"name"`
	// Format carries the parser-selecting extensions (".nt", ".nt.gz", …).
	Format string `json:"format"`
	// Bytes is the spooled (compressed, if gzip) upload size.
	Bytes int64 `json:"bytes"`
}

// Job is the externally visible record of one alignment job, returned by
// the jobs API and persisted on completion so restarts keep the history.
type Job struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`

	// Kind is KindAlign (full alignment, the default when empty),
	// KindDelta (incremental re-alignment), or KindIngest (a pushed KB
	// upload being validated and committed).
	Kind string `json:"kind,omitempty"`

	// Request holds the submission of an align job; Delta that of a delta
	// job; Upload that of an ingest job.
	Request JobRequest    `json:"request"`
	Delta   *DeltaRequest `json:"delta,omitempty"`
	Upload  *UploadRecord `json:"upload,omitempty"`

	Created time.Time `json:"created"`
	// Started and Finished are pointers so the fields are omitted from
	// JSON until the transition happens (omitempty never elides a zero
	// time.Time struct).
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// Iterations grows while the job runs: one entry per completed
	// fixpoint iteration, so GET /jobs/{id} reports live progress.
	Iterations []core.IterationStats `json:"iterations,omitempty"`

	// Ingest is the latest progress of the streaming loads a job performs,
	// updated about once per MiB and with each load's final totals: the
	// upload validation of an ingest job, or the KB loads at the start of
	// an align job. The pointee is immutable (updates replace the
	// pointer), so clones may share it.
	Ingest *IngestProgress `json:"ingest,omitempty"`

	// Error holds the failure cause when State is failed.
	Error string `json:"error,omitempty"`

	// Snapshot is the ID of the persisted snapshot when State is done.
	Snapshot string `json:"snapshot,omitempty"`

	// KB is the committed server-side path of an ingest job's knowledge
	// base when State is done — the path to reference in a later
	// POST /v1/jobs.
	KB string `json:"kb,omitempty"`

	// After names a job this one waits for: it stays queued until that job
	// is done, and fails without running if that job fails. Set on the
	// align job of a chained POST /v1/kbs?align-with= upload.
	After string `json:"after,omitempty"`
	// Next names the job chained behind this one — the align job an ingest
	// job triggers — so the upload response carries both IDs.
	Next string `json:"next,omitempty"`
}

// jobManager runs jobs on a bounded worker pool. Submitted jobs wait in a
// bounded FIFO; when it is full, submission fails fast instead of blocking
// the HTTP handler. The queue is a plain slice under the mutex (not a
// channel) so a canceled queued job can be removed immediately, freeing
// its slot for new submissions.
type jobManager struct {
	mu   sync.Mutex
	cond *sync.Cond // signals workers: pending grew or closed flipped
	jobs map[string]*Job
	seq  uint64

	// cancels holds the cancel function of every running job, keyed by job
	// ID, so DELETE /v1/jobs/{id} can abort the fixpoint mid-flight.
	cancels map[string]context.CancelCauseFunc

	// watchers holds the live SSE subscriber channels per job. Progress
	// events are sent best-effort (a slow subscriber drops intermediate
	// events, which are cumulative); terminal transitions close every
	// channel, and the subscriber re-reads the final record itself — so
	// completion is never lost to a full buffer.
	watchers map[string][]chan JobEvent

	pending []string // queued job IDs, oldest first; at most depth
	depth   int

	// met feeds the queue/running gauges and completion counters; nil in
	// tests that build a bare manager.
	met *jobMetrics

	wg  sync.WaitGroup
	run func(ctx context.Context, id string)

	// onDrop receives the final view of a job dropped from the queue at
	// shutdown, so the owner can persist its failed state.
	onDrop func(Job)

	closed bool
}

// newJobManager starts workers goroutines executing run. run receives a job
// ID plus the context that cancels it, and must drive the job to a terminal
// state via finish; onDrop (may be nil) is invoked for jobs dropped from
// the queue at close.
func newJobManager(workers, depth int, run func(ctx context.Context, id string), onDrop func(Job), met *jobMetrics) *jobManager {
	m := &jobManager{
		jobs:     make(map[string]*Job),
		cancels:  make(map[string]context.CancelCauseFunc),
		watchers: make(map[string][]chan JobEvent),
		depth:    depth,
		met:      met,
		run:      run,
		onDrop:   onDrop,
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				m.mu.Lock()
				id, failedDep := m.takeRunnableLocked()
				for id == "" && !m.closed {
					// Nothing runnable: the queue is empty, or every
					// pending job waits on a dependency still in flight.
					// finish and cancel broadcast, so a settling
					// dependency re-triggers the scan.
					m.cond.Wait()
					id, failedDep = m.takeRunnableLocked()
				}
				// Close drains pending itself, so a closed manager means
				// no more work regardless of the slice.
				if id == "" {
					m.mu.Unlock()
					return
				}
				m.met.queue(len(m.pending))
				m.mu.Unlock()
				if failedDep != "" {
					m.failDependent(id, failedDep)
					continue
				}
				// start refuses jobs that left the queued state between
				// the pop and here (canceled: terminal state already
				// recorded) and everything once close begins; drop is a
				// no-op unless the job is still queued (the shutdown
				// race), where it records the dropped state.
				ctx, ok := m.start(id)
				if !ok {
					m.drop(id)
					continue
				}
				m.run(ctx, id)
				m.release(id)
			}
		}()
	}
	return m
}

// takeRunnableLocked removes and returns the oldest pending job that is
// ready to act on: one with no dependency, one whose dependency is done, or
// one whose dependency failed or vanished — the latter comes back with
// failedDep set, and the worker fails it without running. Jobs whose
// dependency is still queued or running are skipped in place. Callers hold
// m.mu.
func (m *jobManager) takeRunnableLocked() (id, failedDep string) {
	for i, pid := range m.pending {
		j := m.jobs[pid]
		dep := ""
		if j != nil && j.After != "" {
			d, ok := m.jobs[j.After]
			if ok && (d.State == JobQueued || d.State == JobRunning) {
				continue
			}
			if !ok || d.State == JobFailed {
				dep = j.After
			}
		}
		m.pending = append(m.pending[:i], m.pending[i+1:]...)
		return pid, dep
	}
	return "", ""
}

// failDependent drives a queued job whose dependency failed to the failed
// state without running it, persisting the record through onDrop.
func (m *jobManager) failDependent(id, depID string) {
	var final Job
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok && j.State == JobQueued {
		now := time.Now().UTC()
		j.State = JobFailed
		j.Finished = &now
		j.Error = fmt.Sprintf("dependency job %s failed", depID)
		m.met.jobFinished(j.Kind, "failed", nil, now)
		m.closeWatchersLocked(id)
		// Its own dependents, if any, can now fail in turn.
		m.cond.Broadcast()
		final = cloneJob(j)
	}
	m.mu.Unlock()
	if final.ID != "" && m.onDrop != nil {
		m.onDrop(final)
	}
}

// submit enqueues a new job built from the template (Kind plus Request or
// Delta) and returns its initial view. It fails when the queue is full or
// the manager is closed.
func (m *jobManager) submit(template Job) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Job{}, fmt.Errorf("server: shutting down")
	}
	if len(m.pending) >= m.depth {
		return Job{}, fmt.Errorf("server: job queue full (%d pending)", m.depth)
	}
	j := m.submitLocked(template)
	m.met.queue(len(m.pending))
	m.cond.Signal()
	return cloneJob(j), nil
}

// submitChain enqueues first and a second job that runs only after first
// succeeds, atomically: both are accepted or neither, so a chained upload
// can never land its ingest half with the alignment silently refused.
func (m *jobManager) submitChain(first, second Job) (Job, Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Job{}, Job{}, fmt.Errorf("server: shutting down")
	}
	if len(m.pending)+1 >= m.depth {
		return Job{}, Job{}, fmt.Errorf("server: job queue full (%d pending, need 2 slots)", len(m.pending))
	}
	f := m.submitLocked(first)
	second.After = f.ID
	sec := m.submitLocked(second)
	f.Next = sec.ID
	m.met.queue(len(m.pending))
	m.cond.Signal()
	return cloneJob(f), cloneJob(sec), nil
}

// submitLocked allocates, records, and enqueues one job. Callers hold m.mu
// and have checked capacity.
func (m *jobManager) submitLocked(template Job) *Job {
	m.seq++
	j := &Job{
		ID:      fmt.Sprintf("job-%08d", m.seq),
		State:   JobQueued,
		Kind:    template.Kind,
		Request: template.Request,
		Delta:   template.Delta,
		Upload:  template.Upload,
		After:   template.After,
		Created: time.Now().UTC(),
	}
	m.jobs[j.ID] = j
	m.pending = append(m.pending, j.ID)
	return j
}

// activeDeltaBases returns the base snapshot IDs of queued and running
// delta jobs, so the retention GC never retires a base that an
// already-accepted job still needs.
func (m *jobManager) activeDeltaBases() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, j := range m.jobs {
		if j.Kind == KindDelta && j.Delta != nil &&
			(j.State == JobQueued || j.State == JobRunning) {
			out = append(out, j.Delta.Base)
		}
	}
	return out
}

// kbInUse reports whether any queued or running job references the named
// uploaded KB: an ingest job streaming or validating under that name, an
// align job whose resolved inputs are one of the KB's candidate paths, or a
// delta job reading its delta from one of them. DELETE /v1/kbs refuses with
// 409 while this holds, so a 202-acknowledged job never loses its input.
func (m *jobManager) kbInUse(name string, paths []string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ref := "kb:" + name
	for _, j := range m.jobs {
		if j.State != JobQueued && j.State != JobRunning {
			continue
		}
		if j.Upload != nil && j.Upload.Name == name {
			return true
		}
		// Chained align jobs keep "kb:<name>" references until they run.
		if j.Request.KB1 == ref || j.Request.KB2 == ref {
			return true
		}
		for _, p := range paths {
			if j.Request.KB1 == p || j.Request.KB2 == p ||
				(j.Delta != nil && j.Delta.File == p) {
				return true
			}
		}
	}
	return false
}

// findBySnapshot returns the job that published the given snapshot, the root
// of a lineage chain during ontology reconstruction.
func (m *jobManager) findBySnapshot(snapID string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		if j.Snapshot == snapID {
			return cloneJob(j), true
		}
	}
	return Job{}, false
}

// get returns a copy of one job.
func (m *jobManager) get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return cloneJob(j), true
}

// list returns copies of all jobs, oldest first.
func (m *jobManager) list() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, cloneJob(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// counts tallies jobs per state for /stats.
func (m *jobManager) counts() map[JobState]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[JobState]int{}
	for _, j := range m.jobs {
		out[j.State]++
	}
	return out
}

// start transitions a queued job to running and returns the context that
// cancels it. It refuses jobs that are no longer queued (canceled while
// waiting) and everything once close has begun, so no alignment starts
// mid-shutdown.
func (m *jobManager) start(id string) (context.Context, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || j.State != JobQueued || m.closed {
		return nil, false
	}
	now := time.Now().UTC()
	j.State = JobRunning
	j.Started = &now
	m.met.runningAdd(1)
	ctx, cancel := context.WithCancelCause(context.Background())
	m.cancels[id] = cancel
	return ctx, true
}

// release discards a finished job's cancel function (releasing the context)
// after run returns.
func (m *jobManager) release(id string) {
	m.mu.Lock()
	cancel := m.cancels[id]
	delete(m.cancels, id)
	m.mu.Unlock()
	if cancel != nil {
		cancel(nil)
	}
}

// cancel requests cancellation of a job. A queued job transitions to failed
// immediately (the worker will skip it); a running job has its context
// canceled and reaches failed through the worker shortly after. prev is the
// job's state when cancel was called, so the HTTP layer can distinguish
// "canceled now" (queued), "stopping" (running), and "already terminal".
func (m *jobManager) cancel(id string) (j Job, prev JobState, ok bool) {
	m.mu.Lock()
	jp, found := m.jobs[id]
	if !found {
		m.mu.Unlock()
		return Job{}, "", false
	}
	prev = jp.State
	var cancelFn context.CancelCauseFunc
	if prev == JobQueued {
		now := time.Now().UTC()
		jp.State = JobFailed
		jp.Finished = &now
		jp.Error = errCanceled.Error()
		// Free the queue slot right away so a full queue of canceled
		// jobs does not refuse new submissions until a worker drains it.
		for i, pid := range m.pending {
			if pid == id {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
		m.met.queue(len(m.pending))
		m.met.jobFinished(jp.Kind, "canceled", nil, now)
		m.closeWatchersLocked(id)
		// A dependent waiting on this job must observe the failure.
		m.cond.Broadcast()
	} else if prev == JobRunning {
		cancelFn = m.cancels[id]
	}
	j = cloneJob(jp)
	m.mu.Unlock()
	if cancelFn != nil {
		cancelFn(errCanceled)
	}
	return j, prev, true
}

// JobEvent is one frame of the job progress stream (SSE on
// GET /v1/jobs/{id} with Accept: text/event-stream).
type JobEvent struct {
	// Type is EventState (initial view), EventIteration (a fixpoint
	// iteration completed), EventIngest (a streaming-load block landed),
	// or EventDone (terminal state reached).
	Type string `json:"type"`
	Job  Job    `json:"job"`
}

// Job progress stream event types.
const (
	EventState     = "state"
	EventIteration = "iteration"
	EventIngest    = "ingest"
	EventDone      = "done"
)

// watch subscribes to a job's progress events, returning the job's current
// view atomically with the subscription (no transition can fall between
// them). The channel closes when the job reaches a terminal state — or
// immediately, for a job that already has; the subscriber fetches the final
// record with get. cancel must be called to release the subscription.
func (m *jobManager) watch(id string) (j Job, ch <-chan JobEvent, cancel func(), ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jp, found := m.jobs[id]
	if !found {
		return Job{}, nil, nil, false
	}
	c := make(chan JobEvent, 16)
	if jp.State == JobDone || jp.State == JobFailed {
		close(c)
		return cloneJob(jp), c, func() {}, true
	}
	m.watchers[id] = append(m.watchers[id], c)
	cancel = func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		ws := m.watchers[id]
		for i, w := range ws {
			if w == c {
				m.watchers[id] = append(ws[:i], ws[i+1:]...)
				return
			}
		}
	}
	return cloneJob(jp), c, cancel, true
}

// notifyLocked sends a progress event to every subscriber of j,
// best-effort. Callers hold m.mu.
func (m *jobManager) notifyLocked(j *Job, typ string) {
	ws := m.watchers[j.ID]
	if len(ws) == 0 {
		return
	}
	ev := JobEvent{Type: typ, Job: cloneJob(j)}
	for _, c := range ws {
		select {
		case c <- ev:
		default: // slow subscriber: drop; counters are cumulative
		}
	}
}

// closeWatchersLocked ends every subscription of a job that just reached a
// terminal state. Callers hold m.mu.
func (m *jobManager) closeWatchersLocked(id string) {
	for _, c := range m.watchers[id] {
		close(c)
	}
	delete(m.watchers, id)
}

// progress appends one completed iteration to a running job.
func (m *jobManager) progress(id string, it core.IterationStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		j.Iterations = append(j.Iterations, it)
		m.notifyLocked(j, EventIteration)
	}
}

// ingestProgress replaces a running job's streaming-load progress view. The
// pointee is never mutated afterwards, so concurrent clones stay valid.
func (m *jobManager) ingestProgress(id string, p IngestProgress) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		j.Ingest = &p
		m.notifyLocked(j, EventIngest)
	}
}

// setKB records the committed KB path of an ingest job before finish.
func (m *jobManager) setKB(id, path string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		j.KB = path
	}
}

// setRequestKBs writes the run-time-resolved KB paths back onto an align
// job's record, so the persisted record references real files.
func (m *jobManager) setRequestKBs(id, kb1, kb2 string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		j.Request.KB1, j.Request.KB2 = kb1, kb2
	}
}

// finish drives a job to its terminal state and returns the final view for
// persistence.
func (m *jobManager) finish(id, snapshotID string, err error) Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}
	}
	now := time.Now().UTC()
	j.Finished = &now
	outcome := "done"
	if err != nil {
		j.State = JobFailed
		j.Error = err.Error()
		outcome = "failed"
	} else {
		j.State = JobDone
		j.Snapshot = snapshotID
	}
	// finish is only reached from a worker that started the job.
	m.met.runningAdd(-1)
	m.met.jobFinished(j.Kind, outcome, j.Started, now)
	m.closeWatchersLocked(id)
	// Wake workers parked on pending jobs that wait for this one.
	m.cond.Broadcast()
	return cloneJob(j)
}

// recover installs a job restored from the state store, keeping the ID
// sequence ahead of everything recovered.
func (m *jobManager) recover(j Job, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[j.ID] = &j
	if seq > m.seq {
		m.seq = seq
	}
}

// cancelAll cancels the context of every running job with the given cause
// — the shutdown escape hatch: close() normally drains running jobs to
// completion, but once the caller's grace period is spent, cancelAll makes
// them abort within one fixpoint pass instead.
func (m *jobManager) cancelAll(cause error) {
	m.mu.Lock()
	cancels := make([]context.CancelCauseFunc, 0, len(m.cancels))
	for _, c := range m.cancels {
		cancels = append(cancels, c)
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c(cause)
	}
}

// close stops accepting jobs, drops jobs still in the queue (marking them
// failed and persisting the record via onDrop), and waits for running ones
// to finish. The pending slice is taken whole under the lock, so no worker
// can start one of the dropped jobs afterwards.
func (m *jobManager) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	dropped := m.pending
	m.pending = nil
	m.met.queue(0)
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, id := range dropped {
		m.drop(id)
	}
	m.wg.Wait()
}

// drop marks a still-queued job failed and hands it to onDrop.
func (m *jobManager) drop(id string) {
	var dropped Job
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok && j.State == JobQueued {
		now := time.Now().UTC()
		j.State = JobFailed
		j.Finished = &now
		j.Error = "dropped: server shutting down"
		m.met.jobFinished(j.Kind, "dropped", nil, now)
		dropped = cloneJob(j)
		m.closeWatchersLocked(id)
	}
	m.mu.Unlock()
	if dropped.ID != "" && m.onDrop != nil {
		m.onDrop(dropped)
	}
}

func cloneJob(j *Job) Job {
	out := *j
	out.Iterations = append([]core.IterationStats(nil), j.Iterations...)
	return out
}
