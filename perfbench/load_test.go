package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestJobTrackerPollsUntilResult serves a job that is queued, then
// running, then done, and a job that fails: the tracker must take the
// first 200 as the job's result, fail the other, and poll at jobPoll.
func TestJobTrackerPollsUntilResult(t *testing.T) {
	var polls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/ok/result"):
			n := polls.Add(1)
			switch {
			case n == 1:
				w.WriteHeader(http.StatusConflict)
				fmt.Fprint(w, `{"error":"job has not finished","state":"queued"}`)
			case n < 4:
				w.WriteHeader(http.StatusConflict)
				fmt.Fprint(w, `{"error":"job has not finished","state":"running"}`)
			default:
				fmt.Fprint(w, `{"grid":"done"}`)
			}
		case strings.HasSuffix(r.URL.Path, "/bad/result"):
			w.WriteHeader(http.StatusConflict)
			fmt.Fprint(w, `{"error":"boom","state":"failed"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	hc := newHTTPClient(2)
	defer hc.CloseIdleConnections()
	tr := newJobTracker(hc, srv.URL)
	start := time.Now()
	for _, id := range []string{"ok", "bad"} {
		tr.submitted(&sample{
			Body: &Body{Kind: "job"}, Start: start, Status: http.StatusAccepted,
			Resp: []byte(`{"job":{"id":"` + id + `"}}`),
		})
	}
	jobs, n := tr.wait(5 * time.Second)
	if len(jobs) != 2 {
		t.Fatalf("%d jobs tracked, want 2", len(jobs))
	}
	ok, bad := jobs[0], jobs[1]
	if ok.Err != nil || string(ok.Result) != `{"grid":"done"}` || ok.State != "done" || ok.Ready.IsZero() {
		t.Fatalf("done job: err %v state %q result %q", ok.Err, ok.State, ok.Result)
	}
	if bad.Err == nil || !strings.Contains(bad.Err.Error(), "boom") {
		t.Fatalf("failed job: err %v, want the server's error", bad.Err)
	}
	if n != 5 || polls.Load() != 4 {
		t.Fatalf("%d result polls in all, %d for the done job; want 5 and 4", n, polls.Load())
	}
	if d := ok.Ready.Sub(start); d < 4*jobPoll || d > 4*jobPoll+time.Second {
		t.Fatalf("done job ready after %v, want about 4 poll periods of %v", d, jobPoll)
	}
}
