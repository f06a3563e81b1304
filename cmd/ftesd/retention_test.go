package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/jobs"
)

// TestTraceWindow: once more than the retained number of jobs have
// finished, the oldest job's /trace answers 410 Gone with an error body,
// while its metrics are still served and the newest job's trace is whole.
func TestTraceWindow(t *testing.T) {
	doc := designDoc(t)
	srv, _ := newTestServer(t, jobs.Options{Workers: 1})

	const n = 17 // one past the scheduler's trace window
	var ids []string
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"kind":"design","spec":%s,"strategy":"MIN","max_cost":%d}`, doc, 100+i)
		code, sr := postJSON(t, srv.URL+"/jobs", body)
		if code != http.StatusAccepted {
			t.Fatalf("POST design %d = %d", i, code)
		}
		if st := pollDone(t, srv.URL, sr.ID); st.State != jobs.StateDone {
			t.Fatalf("design %d: state %s (%s)", i, st.State, st.Error)
		}
		ids = append(ids, sr.ID)
	}
	oldest, newest := ids[0], ids[n-1]

	code, body := get(t, srv.URL+"/jobs/"+oldest+"/trace")
	var e struct {
		Error string `json:"error"`
	}
	if code != http.StatusGone || json.Unmarshal(body, &e) != nil || e.Error == "" {
		t.Errorf("released trace: %d %s, want 410 with an error body", code, body)
	}

	code, body = get(t, srv.URL+"/jobs/"+newest+"/trace")
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &tr) != nil || len(tr.TraceEvents) == 0 {
		t.Errorf("retained trace: %d %.300s, want 200 with events", code, body)
	}

	code, prom := get(t, srv.URL+"/jobs/"+oldest+"/metrics")
	if code != http.StatusOK || !bytes.Contains(prom, []byte("core_archs_explored_total")) {
		t.Errorf("released job's metrics (%d) missing core counters:\n%.400s", code, prom)
	}
}
