package experiments

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runctl"
	"repro/internal/runstate"
)

func openJournal(t *testing.T, path string, resume bool) *runstate.Journal {
	t.Helper()
	j, err := runstate.Open(path, "test-fp", resume)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestAcceptanceJournalRestore: a journaled point is served from the
// journal on the next run — identical rates, no recomputation.
func TestAcceptanceJournalRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	pt := Point{SER: 1e-11, HPD: 25, ArC: 20}

	cfg := tinyConfig()
	j := openJournal(t, path, false)
	cfg.Journal = j
	want, err := Acceptance(context.Background(), cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	cfg2 := tinyConfig()
	j2 := openJournal(t, path, true)
	cfg2.Journal = j2
	defer j2.Close()
	recomputed := false
	cfg2.RowDone = func(string) { recomputed = true }
	before := jobsStarted.Load()
	got, err := Acceptance(context.Background(), cfg2, pt)
	if err != nil {
		t.Fatal(err)
	}
	if recomputed || jobsStarted.Load() != before {
		t.Error("restored point was recomputed")
	}
	for s, r := range want {
		if got[s] != r {
			t.Errorf("%v: restored rate %v, want %v", s, got[s], r)
		}
	}
}

// TestAcceptanceJournalKeyedByModel: the journal key includes the slack
// model and tabu tuning, so the ablation studies never read another
// variant's rates for the same (SER, HPD, ArC) point.
func TestAcceptanceJournalKeyedByModel(t *testing.T) {
	cfg := tinyConfig()
	base := cfg.pointKey(Point{SER: 1e-11, HPD: 25, ArC: 20})
	cfg.Model = 1
	if cfg.pointKey(Point{SER: 1e-11, HPD: 25, ArC: 20}) == base {
		t.Error("slack model does not participate in the journal key")
	}
}

// TestRuntimeStudyJournalRestore: runtime rows journal their rendered
// cells, so a fully restored study reproduces the exact table —
// including the (otherwise non-deterministic) duration columns.
func TestRuntimeStudyJournalRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")

	cfg := tinyConfig()
	j := openJournal(t, path, false)
	cfg.Journal = j
	want, err := RuntimeStudy(context.Background(), cfg, 1e-11, 25)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	cfg2 := tinyConfig()
	j2 := openJournal(t, path, true)
	cfg2.Journal = j2
	defer j2.Close()
	got, err := RuntimeStudy(context.Background(), cfg2, 1e-11, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("restored table differs:\n%s\nwant:\n%s", got, want)
	}
	if j2.Appended() != 0 {
		t.Errorf("restored study appended %d rows", j2.Appended())
	}
}

// TestChaosCancelResume is the crash-safety property test: a seeded
// sweep is canceled at randomized row boundaries and resumed — with the
// journal tail occasionally torn mid-record, as a crash would leave it —
// until it completes. The final table must be byte-identical to an
// uninterrupted run, and the journal must hold every row exactly once.
func TestChaosCancelResume(t *testing.T) {
	cfg := tinyConfig()
	clean, err := Fig6a(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "j.jsonl")
	rng := rand.New(rand.NewSource(7))
	var final *Table
	for attempt := 1; ; attempt++ {
		if attempt > 40 {
			t.Fatal("sweep did not converge in 40 interrupted attempts")
		}
		j := openJournal(t, path, true)
		ctx, cancel := context.WithCancel(context.Background())
		c := cfg
		c.Journal = j
		fresh := 0
		stopAfter := 1 + rng.Intn(2)
		c.RowDone = func(string) {
			// Only freshly computed rows fire RowDone, so every attempt
			// makes at least one row of progress before the cancel lands —
			// the loop terminates.
			if fresh++; fresh >= stopAfter {
				cancel()
			}
		}
		tab, err := Fig6a(ctx, c)
		j.Close()
		cancel()
		if err == nil {
			final = tab
			break
		}
		if !errors.Is(err, runctl.ErrCanceled) {
			t.Fatal(err)
		}
		if tab == nil {
			t.Fatal("canceled sweep returned no partial table")
		}
		// Sometimes the "crash" tears the journal's final record mid-write.
		if rng.Intn(2) == 1 {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(data) - (1 + rng.Intn(9)); n > 0 {
				if err := os.WriteFile(path, data[:n], 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if final.String() != clean.String() {
		t.Errorf("resumed table differs from clean run:\n%s\nwant:\n%s", final, clean)
	}
	// The journal holds every completed row exactly once — nothing lost,
	// nothing duplicated, even across torn tails.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, rows, _ := runstate.Scan(data)
	if !ok {
		t.Fatal("journal lost its header")
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Key] {
			t.Errorf("row %q journaled twice", r.Key)
		}
		seen[r.Key] = true
	}
	if len(rows) != len(HPDs) {
		t.Errorf("journal holds %d rows, want %d", len(rows), len(HPDs))
	}
}

// TestAcceptanceAppTimeout: a per-app deadline far below any real run
// marks every application rejected — zero rates, no error, the sweep
// survives.
func TestAcceptanceAppTimeout(t *testing.T) {
	cfg := tinyConfig()
	cfg.AppTimeout = time.Nanosecond
	r, err := Acceptance(context.Background(), cfg, Point{SER: 1e-11, HPD: 25, ArC: 20})
	if err != nil {
		t.Fatalf("timed-out apps must not fail the sweep: %v", err)
	}
	for s, rate := range r {
		if rate != 0 {
			t.Errorf("%v accepted %v%% with a 1ns per-app deadline", s, rate)
		}
	}
}

// TestAcceptanceCanceled: a canceled sweep surfaces the typed error.
func TestAcceptanceCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Acceptance(ctx, tinyConfig(), Point{SER: 1e-11, HPD: 25, ArC: 20})
	if !errors.Is(err, runctl.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestAcceptancePanicContained: a panic inside a batch application job
// surfaces as a *runctl.PanicError from the sweep instead of killing the
// process; the remaining jobs drain.
func TestAcceptancePanicContained(t *testing.T) {
	testAppHook = func(seed int64) { panic("injected app fault") }
	defer func() { testAppHook = nil }()
	_, err := Acceptance(context.Background(), tinyConfig(), Point{SER: 1e-11, HPD: 25, ArC: 20})
	var pe *runctl.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *runctl.PanicError", err, err)
	}
	if pe.Value != "injected app fault" {
		t.Errorf("panic value %v", pe.Value)
	}
}

// TestRuntimeStudyCanceledPartial: cancellation returns the completed
// rows and the typed error; the in-progress row is dropped whole.
func TestRuntimeStudyCanceledPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tab, err := RuntimeStudy(ctx, tinyConfig(), 1e-11, 25)
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if tab == nil {
		t.Fatal("no partial table")
	}
	if len(tab.Rows) != 0 {
		t.Errorf("upfront cancel produced %d rows", len(tab.Rows))
	}
}

// TestFig6aCanceledPartialCells: a mid-sweep cancel yields the partial
// figure — computed points rendered, missing points as "-".
func TestFig6aCanceledPartialCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j := openJournal(t, path, false)
	defer j.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := tinyConfig()
	cfg.Journal = j
	cfg.RowDone = func(string) { cancel() } // cancel after the first point
	tab, err := Fig6a(ctx, cfg)
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if tab == nil {
		t.Fatal("no partial table")
	}
	out := tab.String()
	if !contains(out, "-") {
		t.Errorf("partial table has no \"-\" cells:\n%s", out)
	}
	for _, row := range tab.Rows {
		if row[1] == "-" {
			t.Errorf("first point should be rendered, got %v", row)
		}
	}
}

// TestCanceledPartialRows: the ablation and policy tables, like Fig. 6a,
// keep every row finished before a cancel — the first row rendered, the
// rows cancellation never reached as "-" cells.
func TestCanceledPartialRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		fig  func(context.Context, Config) (*Table, error)
	}{
		{"gradient", func(ctx context.Context, cfg Config) (*Table, error) { return AblationGradient(ctx, cfg, 1e-10) }},
		{"policies", func(ctx context.Context, cfg Config) (*Table, error) { return PolicyComparison(ctx, cfg, 1e-10, 0.5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := tinyConfig()
			cfg.RowDone = func(string) { cancel() } // cancel after the first row
			tab, err := tc.fig(ctx, cfg)
			if !errors.Is(err, runctl.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if tab == nil {
				t.Fatal("no partial table")
			}
			if len(tab.Rows) < 2 {
				t.Fatalf("partial table has %d rows:\n%s", len(tab.Rows), tab)
			}
			if first := tab.Rows[0]; first[1] == "-" {
				t.Errorf("first row should be rendered, got %v", first)
			}
			for _, row := range tab.Rows[1:] {
				if row[1] != "-" {
					t.Errorf("row cancellation never reached rendered as %v, want \"-\" cells", row)
				}
			}
		})
	}
}

// TestRowKeysStable pins the journal keys of acceptance points and
// runtime rows: journals written before the one row loop must resume
// under it, every row restored.
func TestRowKeysStable(t *testing.T) {
	cfg := tinyConfig()
	if got, want := cfg.pointKey(Point{SER: 1e-11, HPD: 25, ArC: 20}),
		"acceptance|model=0|tabu=0,0,0|graphs=0|ser=1e-11|hpd=25|arc=20"; got != want {
		t.Errorf("acceptance key %q, want %q", got, want)
	}
	if got, want := cfg.rowKey(1e-11, 25, 20, core.OPT),
		"runtime|model=0|tabu=0,0,0|ser=1e-11|hpd=25|n=20|strategy=OPT"; got != want {
		t.Errorf("runtime key %q, want %q", got, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
