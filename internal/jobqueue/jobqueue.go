// Package jobqueue is the bounded work queue behind the eccsimd daemon:
// submitted tasks run on a fixed pool of worker goroutines (the pool itself
// is one parallel.ForEach fan-out, reusing the repo's standard pool
// plumbing), every job carries an externally visible status, and the whole
// queue drains gracefully on shutdown — no accepted job is ever lost or
// reported twice.
//
// Dispatch is fair, not FIFO: jobs queue under a (submitter, group)
// fairness key inside one of three priority classes (interactive > sweep >
// batch), lanes within a class drain round-robin one job per turn, and
// classes share the workers by deficit-weighted round-robin (see sched).
// FIFO order is preserved within a lane, so one submitter's jobs still run
// in submission order, but a 10k-point sweep can no longer starve the
// interactive submitter behind it. NewFIFO restores the old single-lane
// global FIFO for A/B load measurements.
package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"eccparity/internal/parallel"
	"eccparity/internal/stats"
)

// Submission errors.
var (
	// ErrFull is returned when the queue's bounded buffer is at capacity.
	ErrFull = errors.New("jobqueue: queue full")
	// ErrClosed is returned once Close or Drain has been called.
	ErrClosed = errors.New("jobqueue: closed")
)

// Status is a job's lifecycle state.
type Status string

// The job lifecycle: Queued → Running → one terminal state. A queued job
// canceled before a worker picks it up goes straight to StatusCanceled.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether s is a final state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Task is one unit of work. The context is canceled when the job is
// canceled or the queue force-drains; tasks that can stop early should
// honor it.
type Task func(ctx context.Context) (any, error)

// SubmitOptions tags a submission with its scheduling identity. The zero
// value is an ungrouped, anonymous, interactive job with no deadline.
type SubmitOptions struct {
	// Group names the cancellation/notification group (the daemon uses one
	// group per sweep; CancelGroup and ChangedGroup address it). "" means
	// ungrouped.
	Group string
	// Submitter is the fairness identity: each (Submitter, Group) pair gets
	// its own FIFO lane, so distinct submitters interleave instead of
	// queueing behind each other. "" is the shared anonymous lane.
	Submitter string
	// Origin is the cluster peer that forwarded this submission ("" = a
	// direct client submission). Admission treats a forwarded job like any
	// other — same capacity check, same classes — but when Submitter is
	// empty the origin seeds the fairness lane ("peer/<origin>"), so one
	// peer's forwarded backlog interleaves with local traffic instead of
	// flooding the shared anonymous lane.
	Origin string
	// Class is the priority class (default ClassInteractive).
	Class Class
	// Timeout is the per-job execution deadline, counted from the moment a
	// worker starts the job (queue wait doesn't burn the budget). When it
	// expires the task's context is canceled and the job finishes
	// StatusFailed with context.DeadlineExceeded, distinct from an explicit
	// Cancel's StatusCanceled. 0 means no deadline.
	Timeout time.Duration
}

// Snapshot is a consistent copy of a job's externally visible state.
type Snapshot struct {
	ID       string    `json:"id"`
	Status   Status    `json:"status"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Group and Class echo the submission's scheduling identity; Origin is
	// the forwarding peer for jobs relayed across a cluster.
	Group  string `json:"group,omitempty"`
	Class  Class  `json:"class"`
	Origin string `json:"origin,omitempty"`
	// Result holds the task's return value once Status == StatusDone.
	Result any `json:"-"`
}

// job is the internal record; all fields past timeout are guarded by
// Queue.mu.
type job struct {
	id       string
	group    string // "" = ungrouped; see SubmitOptions.Group
	origin   string // forwarding peer; see SubmitOptions.Origin
	schedKey string // fairness lane: schedKey(submitter, group)
	class    Class
	task     Task
	ctx      context.Context
	cancel   context.CancelFunc
	timeout  time.Duration // 0 = no deadline; counted from job start
	status   Status
	err      string
	result   any
	created  time.Time
	started  time.Time
	finished time.Time
}

// Counts aggregates terminal outcomes for metrics.
type Counts struct {
	Submitted, Done, Failed, Canceled uint64
}

// Queue is a bounded job queue with a fixed worker pool and fair dispatch.
// All methods are safe for concurrent use.
type Queue struct {
	mu       sync.Mutex
	jobs     map[string]*job
	groups   map[string][]*job
	sched    sched
	capacity int
	closed   bool
	nextID   uint64
	inflight int
	counts   Counts
	changeG  map[string]chan struct{}    // per-group transition channels (ChangedGroup)
	dispatch chan struct{}               // closed and replaced whenever a job is queued (or on Close)
	waitHist [numClasses]stats.Histogram // queue-wait ms per class

	baseCtx    context.Context
	baseCancel context.CancelFunc
	poolDone   chan struct{}
}

// New starts a fair-dispatch queue holding at most capacity queued jobs,
// executed by exactly workers goroutines. Both are clamped to ≥1.
func New(capacity, workers int) *Queue {
	return newQueue(capacity, workers, false)
}

// NewFIFO starts a queue identical to New's except that dispatch is the
// pre-scheduler global FIFO: one lane, priorities ignored. It exists so the
// load generator can measure the fair scheduler against its baseline.
func NewFIFO(capacity, workers int) *Queue {
	return newQueue(capacity, workers, true)
}

func newQueue(capacity, workers int, fifo bool) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	if workers < 1 {
		workers = 1
	}
	q := &Queue{
		jobs:     map[string]*job{},
		groups:   map[string][]*job{},
		sched:    sched{fifo: fifo},
		capacity: capacity,
		changeG:  map[string]chan struct{}{},
		dispatch: make(chan struct{}),
		poolDone: make(chan struct{}),
	}
	q.baseCtx, q.baseCancel = context.WithCancel(context.Background())
	go func() {
		defer close(q.poolDone)
		// The pool is a parallel.ForEach with one long-lived loop per worker
		// slot, running under the queue's base context so a forced Drain
		// cancels workers through the same plumbing that cancels the jobs.
		// Task panics are captured per job inside run, so the fan-out itself
		// never errors and a bad job cannot kill the pool.
		_ = parallel.ForEach(q.baseCtx, workers, workers, func(ctx context.Context, _ int) error {
			q.workerLoop(ctx)
			return nil
		})
		// If cancellation raced the pool's startup, ForEach may have exited
		// before any worker ran its loop; sweep whatever is left so every
		// accepted job still reaches a terminal state.
		q.sweepRemaining()
	}()
	return q
}

// workerLoop pops and runs scheduled jobs until the queue is closed and
// empty, or the base context forces a drain.
func (q *Queue) workerLoop(ctx context.Context) {
	for {
		q.mu.Lock()
		if j := q.sched.pop(); j != nil {
			q.mu.Unlock()
			q.run(j)
			continue
		}
		if q.closed {
			q.mu.Unlock()
			return
		}
		// Grab the dispatch channel before unlocking: a push (or Close)
		// between the failed pop and the wait closes exactly this channel,
		// so no wakeup is lost.
		wait := q.dispatch
		q.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			// Forced drain: every queued job's context is a child of the
			// canceled base context, so run marks it canceled without
			// invoking the task.
			q.sweepRemaining()
			return
		}
	}
}

// sweepRemaining drains the scheduler, running (and, post-force, canceling)
// every job still queued.
func (q *Queue) sweepRemaining() {
	for {
		q.mu.Lock()
		j := q.sched.pop()
		q.mu.Unlock()
		if j == nil {
			return
		}
		q.run(j)
	}
}

// SubmitWith enqueues a task under explicit scheduling options and returns
// its job id. It never blocks: a full buffer returns ErrFull, a closed
// queue ErrClosed.
func (q *Queue) SubmitWith(task Task, o SubmitOptions) (string, error) {
	if o.Class < 0 || int(o.Class) >= numClasses {
		return "", fmt.Errorf("jobqueue: unknown class %d", o.Class)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return "", ErrClosed
	}
	if q.sched.queued >= q.capacity {
		return "", ErrFull
	}
	q.nextID++
	id := fmt.Sprintf("job-%d", q.nextID)
	ctx, cancel := context.WithCancel(q.baseCtx)
	submitter := o.Submitter
	if submitter == "" && o.Origin != "" {
		submitter = "peer/" + o.Origin
	}
	j := &job{
		id: id, group: o.Group, origin: o.Origin,
		schedKey: schedKey(submitter, o.Group),
		class:    o.Class, task: task, ctx: ctx, cancel: cancel,
		timeout: o.Timeout, status: StatusQueued, created: time.Now(),
	}
	q.jobs[id] = j
	if o.Group != "" {
		q.groups[o.Group] = append(q.groups[o.Group], j)
	}
	q.counts.Submitted++
	q.sched.push(j)
	q.bumpDispatchLocked()
	return id, nil
}

// run executes one job on a pool worker, moving it through exactly one
// terminal transition.
func (q *Queue) run(j *job) {
	q.mu.Lock()
	if j.status != StatusQueued {
		// Canceled while queued; already terminal.
		q.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil {
		q.finishLocked(j, StatusCanceled, nil, j.ctx.Err().Error())
		q.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	q.waitHist[j.class].Add(float64(j.started.Sub(j.created).Nanoseconds()) / 1e6)
	q.inflight++
	q.bumpLocked(j)
	if j.timeout > 0 {
		// The deadline clock starts here, not at SubmitWith, so a job that sat
		// in the buffer still gets its full budget. Replacing j.ctx under mu
		// keeps Cancel's j.cancel() effective: it cancels the parent.
		var cancelTimeout context.CancelFunc
		j.ctx, cancelTimeout = context.WithTimeout(j.ctx, j.timeout)
		defer cancelTimeout()
	}
	q.mu.Unlock()

	res, err := runTask(j)

	q.mu.Lock()
	q.inflight--
	switch {
	case err == nil:
		q.finishLocked(j, StatusDone, res, "")
	case errors.Is(err, context.Canceled):
		q.finishLocked(j, StatusCanceled, nil, err.Error())
	default:
		q.finishLocked(j, StatusFailed, nil, err.Error())
	}
	q.mu.Unlock()
	j.cancel()
}

// finishLocked records a job's single terminal transition (mu held).
func (q *Queue) finishLocked(j *job, s Status, res any, errMsg string) {
	j.status = s
	j.result = res
	j.err = errMsg
	j.finished = time.Now()
	switch s {
	case StatusDone:
		q.counts.Done++
	case StatusFailed:
		q.counts.Failed++
	case StatusCanceled:
		q.counts.Canceled++
	}
	q.bumpLocked(j)
}

// bumpLocked wakes everyone blocked on the job's group's ChangedGroup
// channel (mu held). Ungrouped transitions touch no channel, and one
// group's transitions never wake another group's waiters.
func (q *Queue) bumpLocked(j *job) {
	if j.group == "" {
		return
	}
	if ch, ok := q.changeG[j.group]; ok {
		close(ch)
		q.changeG[j.group] = make(chan struct{})
	}
}

// bumpDispatchLocked wakes idle workers after a push or Close (mu held).
func (q *Queue) bumpDispatchLocked() {
	close(q.dispatch)
	q.dispatch = make(chan struct{})
}

// ChangedGroup returns a channel that is closed at the next status
// transition (queued→running or any terminal move) of a job submitted under
// group, and only then — transitions elsewhere in the queue do not touch
// it. Grab the channel, read whatever state is of interest, then wait on
// it: the close-and-replace discipline means no transition between the grab
// and the wait is lost. A sweep long-poller waiting on its own group is
// therefore never woken (and never rescans its point list) because an
// unrelated job finished.
func (q *Queue) ChangedGroup(group string) <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	ch, ok := q.changeG[group]
	if !ok {
		ch = make(chan struct{})
		q.changeG[group] = ch
	}
	return ch
}

// runTask invokes the task, converting a panic into an error so one bad
// job cannot take down the daemon's worker pool.
func runTask(j *job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobqueue: job %s panicked: %v\n%s", j.id, r, debug.Stack())
		}
	}()
	return j.task(j.ctx)
}

// Get returns a snapshot of the job's current state.
func (q *Queue) Get(id string) (Snapshot, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return Snapshot{
		ID: j.id, Status: j.status, Error: j.err,
		Created: j.created, Started: j.started, Finished: j.finished,
		Group: j.group, Class: j.class, Origin: j.origin,
		Result: j.result,
	}, true
}

// Cancel cancels a job: a queued job becomes terminal immediately (and
// leaves its dispatch lane), a running job has its context canceled (tasks
// that honor it will stop). It reports whether the job exists and was not
// already terminal.
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.status.Terminal() {
		q.mu.Unlock()
		return false
	}
	if j.status == StatusQueued {
		q.sched.remove(j)
		q.finishLocked(j, StatusCanceled, nil, "canceled before start")
	}
	q.mu.Unlock()
	j.cancel()
	return true
}

// CancelGroup cancels every non-terminal job submitted under group, exactly
// as per-job Cancel would: queued jobs become terminal immediately, running
// jobs have their contexts canceled. It returns how many jobs it canceled.
func (q *Queue) CancelGroup(group string) int {
	if group == "" {
		return 0
	}
	q.mu.Lock()
	var hit []*job
	for _, j := range q.groups[group] {
		if j.status.Terminal() {
			continue
		}
		if j.status == StatusQueued {
			q.sched.remove(j)
			q.finishLocked(j, StatusCanceled, nil, "canceled before start")
		}
		hit = append(hit, j)
	}
	q.mu.Unlock()
	for _, j := range hit {
		j.cancel()
	}
	return len(hit)
}

// Depth returns the number of jobs waiting to be dispatched.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sched.queued
}

// ClassDepth returns how many queued jobs class c holds. A FIFO queue files
// everything under ClassInteractive.
func (q *Queue) ClassDepth(c Class) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sched.classDepth(c)
}

// OldestQueuedAge returns how long class c's oldest queued job has been
// waiting, and whether the class has any queued job at all. It is the
// starvation gauge: under a sustained higher-priority flood this age keeps
// growing only if the weighted scheduler stops serving the class — which the
// credit rounds make impossible.
func (q *Queue) OldestQueuedAge(c Class) (time.Duration, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.sched.oldestCreated(c)
	if !ok {
		return 0, false
	}
	return time.Since(t), true
}

// QueueWait returns a copy of class c's time-in-queue histogram
// (milliseconds from submission to dispatch).
func (q *Queue) QueueWait(c Class) stats.Histogram {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waitHist[c]
}

// InFlight returns the number of jobs currently executing.
func (q *Queue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.inflight
}

// Stats returns the cumulative submission/outcome counters.
func (q *Queue) Stats() Counts {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.counts
}

// Close stops accepting submissions. Already-queued and running jobs keep
// going; use Drain to wait for them.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		// Wake idle workers so they observe closed-and-empty and exit.
		q.bumpDispatchLocked()
	}
}

// Drain closes the queue and blocks until every accepted job has reached a
// terminal state. If ctx expires first, all remaining job contexts are
// canceled (queued jobs become StatusCanceled without running; running
// tasks see cancellation) and Drain still waits for the workers to finish
// before returning ctx's error.
func (q *Queue) Drain(ctx context.Context) error {
	q.Close()
	select {
	case <-q.poolDone:
		return nil
	case <-ctx.Done():
		q.baseCancel()
		<-q.poolDone
		return ctx.Err()
	}
}
