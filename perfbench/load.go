package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// newHTTPClient returns a client holding at most conns keep-alive
// connections to the daemon; every request of a run, job polls included,
// shares them.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// post sends one body and reads the whole response.
func post(ctx context.Context, hc *http.Client, base string, b *Body) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+b.Path, bytes.NewReader(b.Data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(hc, req)
}

func get(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(hc, req)
}

func do(hc *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// sample is one sent request. Due is when the schedule wanted it sent
// (equal to Start in a closed loop); latency counts from Due.
type sample struct {
	Body   *Body
	Due    time.Time
	Start  time.Time
	End    time.Time
	Status int
	Resp   []byte
	Err    error
}

func (s *sample) latency() time.Duration { return s.End.Sub(s.Due) }
func (s *sample) late() time.Duration    { return s.Start.Sub(s.Due) }

// sender runs requests against one daemon with a fixed number of
// workers over a shared client, and hands job submissions to a tracker.
type sender struct {
	hc      *http.Client
	base    string
	workers int
	tr      *Tracer
	jobs    *jobTracker // nil when the workload sends no jobs
}

func (s *sender) send(ctx context.Context, smp *sample) {
	sp := s.tr.Start(SpanRef{}, "http."+smp.Body.Kind)
	smp.Status, smp.Resp, smp.Err = post(ctx, s.hc, s.base, smp.Body)
	smp.End = time.Now()
	sp.End()
	if smp.Body.Kind == "job" && s.jobs != nil {
		s.jobs.submitted(smp)
	}
}

// openLoop sends bodies on a fixed schedule, one every interval from
// now, regardless of how fast answers come back. A request whose due
// time passes while every worker is busy waits for the next free worker
// and is sent late; it is never dropped, and its latency still counts
// from its due time.
func (s *sender) openLoop(ctx context.Context, bodies []*Body, interval time.Duration) []*sample {
	t0 := time.Now()
	out := make([]*sample, len(bodies))
	for i, b := range bodies {
		out[i] = &sample{Body: b, Due: t0.Add(time.Duration(i) * interval)}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(out) || ctx.Err() != nil {
					return
				}
				smp := out[i]
				if d := time.Until(smp.Due); d > 0 {
					time.Sleep(d)
				}
				smp.Start = time.Now()
				s.send(ctx, smp)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop sends a fixed batch with every worker busy: each sends the
// next body as soon as its previous answer arrives.
func (s *sender) closedLoop(ctx context.Context, bodies []*Body) []*sample {
	out := make([]*sample, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(out) || ctx.Err() != nil {
					return
				}
				now := time.Now()
				out[i] = &sample{Body: bodies[i], Due: now, Start: now}
				s.send(ctx, out[i])
			}
		}()
	}
	wg.Wait()
	for i, smp := range out {
		if smp == nil { // never sent: the run's deadline passed
			out[i] = &sample{Body: bodies[i], Err: ctx.Err()}
		}
	}
	return out
}

// trackedJob is one submitted /v1/jobs spec followed to its result.
type trackedJob struct {
	Body      *Body
	ID        string
	Submitted time.Time
	Ready     time.Time // when a poll first got the job's result
	State     string
	Result    []byte
	Err       error
}

// jobPoll is how often the tracker polls while a job is pending. A job's
// measured time is exact to this period plus one round trip.
const jobPoll = 2 * time.Millisecond

// jobTracker follows submitted jobs to their results through the run's
// shared client. While any job is pending, one poller asks for each
// pending job's result every jobPoll; the first 200 answer is the job
// ready and its result at once.
type jobTracker struct {
	hc      *http.Client
	base    string
	poll    time.Duration
	mu      sync.Mutex
	jobs    []*trackedJob
	pending map[string]*trackedJob
	polls   int           // result requests sent
	wake    chan struct{} // a job was submitted
	stopc   chan struct{}
	done    chan struct{} // closed when the poller has exited
}

func newJobTracker(hc *http.Client, base string) *jobTracker {
	t := &jobTracker{
		hc: hc, base: base, poll: jobPoll,
		pending: map[string]*trackedJob{},
		wake:    make(chan struct{}, 1),
		stopc:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	go t.run()
	return t
}

func (t *jobTracker) submitted(smp *sample) {
	j := &trackedJob{Body: smp.Body, Submitted: smp.Start}
	var sub struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	switch {
	case smp.Err != nil || (smp.Status != http.StatusAccepted && smp.Status != http.StatusOK):
		j.Err = fmt.Errorf("submit: status %d: %v", smp.Status, smp.Err)
	case json.Unmarshal(smp.Resp, &sub) != nil || sub.Job.ID == "":
		j.Err = fmt.Errorf("submit: bad response %s", truncate(smp.Resp))
	default:
		j.ID = sub.Job.ID
	}
	t.mu.Lock()
	t.jobs = append(t.jobs, j)
	if j.Err == nil {
		t.pending[j.ID] = j
	}
	t.mu.Unlock()
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// pendingJobs lists the pending jobs in submission order.
func (t *jobTracker) pendingJobs() []*trackedJob {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*trackedJob
	for _, j := range t.jobs {
		if t.pending[j.ID] == j {
			out = append(out, j)
		}
	}
	return out
}

func (t *jobTracker) run() {
	defer close(t.done)
	for {
		pending := t.pendingJobs()
		if len(pending) == 0 {
			select {
			case <-t.stopc:
				return
			case <-t.wake:
				continue
			}
		}
		select {
		case <-t.stopc:
			return
		case <-time.After(t.poll):
		}
		for _, j := range pending {
			t.pollOne(j)
		}
	}
}

// pollOne asks for one job's result: 200 is the result, 409 with a
// queued or running state means not yet, anything else fails the job.
func (t *jobTracker) pollOne(j *trackedJob) {
	status, body, err := get(context.Background(), t.hc, t.base+"/v1/jobs/"+j.ID+"/result")
	now := time.Now()
	var notYet struct {
		State string `json:"state"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.polls++
	switch {
	case err != nil:
		j.Err = fmt.Errorf("job %s result: %w", j.ID, err)
	case status == http.StatusOK:
		j.State, j.Ready, j.Result = "done", now, body
	case status == http.StatusConflict && json.Unmarshal(body, &notYet) == nil &&
		(notYet.State == "queued" || notYet.State == "running"):
		j.State = notYet.State
		return
	default:
		j.Err = fmt.Errorf("job %s result: HTTP %d: %s", j.ID, status, truncate(body))
	}
	delete(t.pending, j.ID)
}

// finishAll fails every pending job with err.
func (t *jobTracker) finishAll(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, j := range t.pending {
		j.Err = fmt.Errorf("job %s (%s): %w", id, j.State, err)
		delete(t.pending, id)
	}
}

// settle blocks until no job is pending or timeout has passed.
func (t *jobTracker) settle(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && len(t.pendingJobs()) > 0 {
		select {
		case <-t.done:
			return
		case <-time.After(t.poll):
		}
	}
}

// wait settles, stops the poller and returns every tracked job and the
// number of result polls sent; jobs still pending then count as failed.
func (t *jobTracker) wait(timeout time.Duration) ([]*trackedJob, int) {
	t.settle(timeout)
	close(t.stopc)
	<-t.done
	t.finishAll(fmt.Errorf("not finished %s after the run", timeout))
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*trackedJob(nil), t.jobs...), t.polls
}
