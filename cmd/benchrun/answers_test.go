package main

import (
	"context"
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgen"
)

var update = flag.Bool("update", false, "regenerate testdata/fig6-answers.txt from the current code")

// TestFig6Answers pins the fig6-sweep known answers. With -update it
// recomputes all of them; otherwise it spot-checks the first apps, since
// every benchmark run checks the rest.
func TestFig6Answers(t *testing.T) {
	n := 2
	if *update {
		n = fig6Apps
	}
	lines := make([]string, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			inst, err := taskgen.Generate(fig6Config(j))
			if err != nil {
				t.Error(err)
				return
			}
			res, err := fig6Design(context.Background(), inst, core.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			lines[j] = fig6Line(j, res)
		}(j)
	}
	wg.Wait()
	if *update {
		if err := os.WriteFile("testdata/fig6-answers.txt", []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := parseFig6Answers()
	if err != nil {
		t.Fatal(err)
	}
	for j, got := range lines {
		if got != want[j] {
			t.Errorf("app %d:\n got %s\nwant %s", j, got, want[j])
		}
	}
}
