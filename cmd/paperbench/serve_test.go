package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// captureStderr redirects the package's stderr writer into a buffer for
// the duration of one test.
func captureStderr(t *testing.T) *syncBuffer {
	t.Helper()
	old := stderr
	buf := &syncBuffer{}
	stderr = buf
	t.Cleanup(func() { stderr = old })
	return buf
}

// syncBuffer is a locked bytes.Buffer: the progress renderer goroutine
// writes to stderr concurrently with the test reading it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeFlag is the acceptance check for the live-introspection layer:
// with -serve active during -fig cc, /healthz answers 200, /metrics is
// scrapeable and ends up with the run's counters, /progress advances
// monotonically — and the tables are byte-identical to a run without
// -serve.
func TestServeFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full design strategies")
	}
	captureStderr(t)

	get := func(base, path string) (int, string, error) {
		resp, err := http.Get("http://" + base + path)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), err
	}

	type probe struct {
		healthOK    bool
		scrapes     int
		progressOK  bool
		monotonic   bool
		lastCurrent int64
		promSeen    map[string]bool
		finalStatus obs.ProgressStatus
	}
	promTokens := []string{"core_archs_explored_total", "core_runs_total",
		`progress_current{phase="cc.strategies"}`, "evalengine_evaluations_total"}
	pr := probe{promSeen: map[string]bool{}, monotonic: true, lastCurrent: -1}
	scrape := func(addr string) {
		if code, _, err := get(addr, "/healthz"); err == nil && code == http.StatusOK {
			pr.healthOK = true
		}
		if code, body, err := get(addr, "/metrics"); err == nil && code == http.StatusOK {
			pr.scrapes++
			for _, tok := range promTokens {
				if strings.Contains(body, tok) {
					pr.promSeen[tok] = true
				}
			}
		}
		if code, body, err := get(addr, "/progress"); err == nil && code == http.StatusOK {
			var st obs.ProgressStatus
			if json.Unmarshal([]byte(body), &st) == nil {
				pr.progressOK = true
				var total int64
				for _, phs := range st.Phases {
					total += phs.Current
				}
				if total < pr.lastCurrent {
					pr.monotonic = false
				}
				pr.lastCurrent = total
				pr.finalStatus = st
			}
		}
	}
	// The server shuts down the moment the figures finish, so the polling
	// loop's scrapes race with run progress: on a slow box it may only get
	// one or two in before the run ends. The drain hook stops the loop and
	// takes one guaranteed final sample while the server is still up — that
	// sample carries the run's final counters and progress phases.
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	testServeHook = func(addr string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				scrape(addr)
				time.Sleep(10 * time.Millisecond)
			}
		}()
		testServeDrainHook = func() {
			stopOnce.Do(func() { close(stop) })
			wg.Wait()
			scrape(addr)
		}
	}
	defer func() { testServeHook, testServeDrainHook = nil, nil }()

	var served, plain strings.Builder
	if err := run(context.Background(), []string{"-fig", "cc", "-serve", "127.0.0.1:0"}, &served); err != nil {
		t.Fatal(err)
	}
	stopOnce.Do(func() { close(stop) })
	wg.Wait()
	if err := run(context.Background(), []string{"-fig", "cc"}, &plain); err != nil {
		t.Fatal(err)
	}

	if !pr.healthOK {
		t.Error("/healthz never answered 200 during the run")
	}
	if pr.scrapes == 0 {
		t.Fatal("/metrics was never scraped successfully")
	}
	if !pr.progressOK {
		t.Fatal("/progress never decoded")
	}
	if !pr.monotonic {
		t.Error("/progress total current went backwards")
	}
	phases := map[string]obs.PhaseStatus{}
	for _, phs := range pr.finalStatus.Phases {
		phases[phs.Name] = phs
	}
	if phases["cc.strategies"].Current == 0 {
		t.Errorf("cc.strategies never ticked: %+v", pr.finalStatus)
	}
	if phases["core.archs"].Current == 0 || phases["mapping.iterations"].Current == 0 {
		t.Errorf("per-run phases never ticked: %+v", pr.finalStatus)
	}
	for _, want := range promTokens {
		if !pr.promSeen[want] {
			t.Errorf("no /metrics scrape ever contained %q (%d scrapes)", want, pr.scrapes)
		}
	}

	// -serve must not perturb stdout at all: byte-identical tables modulo
	// wall-clock lines.
	keep := func(s string) string {
		var sb strings.Builder
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "evaluator:") || strings.Contains(line, "regenerated in") {
				continue
			}
			sb.WriteString(line)
			sb.WriteString("\n")
		}
		return sb.String()
	}
	if keep(served.String()) != keep(plain.String()) {
		t.Errorf("-serve changed stdout:\n--- served ---\n%s\n--- plain ---\n%s",
			served.String(), plain.String())
	}
}

// TestMetricsKeepsGolden is the -metrics interleaving regression: the
// dump goes to stderr, so stdout of `-metrics -fig cc` must still match
// testdata/cc.golden byte for byte.
func TestMetricsKeepsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full design strategies")
	}
	errBuf := captureStderr(t)
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "cc", "-metrics"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cc.golden", sb.String())
	if !strings.Contains(errBuf.String(), "metrics:") ||
		!strings.Contains(errBuf.String(), "core.runs 3") {
		t.Errorf("metrics dump missing from stderr:\n%s", errBuf.String())
	}
}

// TestLogFlag: -log json emits one JSON record per line on stderr with
// the run-lifecycle messages; stdout stays golden.
func TestLogFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full design strategies")
	}
	errBuf := captureStderr(t)
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "cc", "-log", "json", "-log-level", "debug"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cc.golden", sb.String())
	out := errBuf.String()
	msgs := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v (%q)", err, line)
		}
		if m, ok := rec["msg"].(string); ok {
			msgs[m] = true
		}
	}
	for _, want := range []string{"figure start", "figure done", "core.run done"} {
		if !msgs[want] {
			t.Errorf("log stream missing %q records (got %v)", want, msgs)
		}
	}
}

// TestLogFlagValidation: bad -log / -log-level values must error out.
func TestLogFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "cc", "-log", "xml"}, &sb); err == nil {
		t.Error("want error for -log xml")
	}
	if err := run(context.Background(), []string{"-fig", "cc", "-log", "text", "-log-level", "loud"}, &sb); err == nil {
		t.Error("want error for -log-level loud")
	}
}

// TestProgressFlag: -progress renders status lines on stderr and leaves
// stdout untouched.
func TestProgressFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full design strategies")
	}
	errBuf := captureStderr(t)
	var sb strings.Builder
	if err := run(context.Background(), []string{"-fig", "cc", "-progress"}, &sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cc.golden", sb.String())
	if !strings.Contains(errBuf.String(), "cc.strategies") {
		t.Errorf("no progress line on stderr:\n%q", errBuf.String())
	}
}
