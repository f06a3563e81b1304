package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Debug("a", "k", 1)
	l.Info("b")
	l.Warn("c")
	l.Error("d", "err", "boom")
	if l.With("k", "v") != nil {
		t.Error("With on the disabled logger must stay disabled")
	}
	if l.Enabled(slog.LevelError) {
		t.Error("disabled logger reports Enabled")
	}
	for _, format := range []string{"", "off"} {
		if l, err := NewFlagLogger(&bytes.Buffer{}, format, ""); l != nil || err != nil {
			t.Errorf("NewFlagLogger(%q) = %v, %v, want the disabled logger", format, l, err)
		}
	}
	for _, bad := range [][2]string{{"xml", "info"}, {"text", "loud"}} {
		if _, err := NewFlagLogger(&bytes.Buffer{}, bad[0], bad[1]); err == nil {
			t.Errorf("NewFlagLogger(%q, %q) accepted", bad[0], bad[1])
		}
	}
}

// mustFlagLogger is NewFlagLogger for a format and level known to be valid.
func mustFlagLogger(t *testing.T, buf *bytes.Buffer, format, level string) *Logger {
	t.Helper()
	l, err := NewFlagLogger(buf, format, level)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestTextLogger(t *testing.T) {
	var buf bytes.Buffer
	l := mustFlagLogger(t, &buf, "text", "info")
	l.Debug("hidden")
	l.With("strategy", "OPT").Info("core.run done", "cost", 56.0, "span", int64(7))
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("debug line leaked at info level: %q", out)
	}
	for _, want := range []string{"core.run done", "strategy=OPT", "cost=56", "span=7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q missing %q", out, want)
		}
	}
	if !l.Enabled(slog.LevelInfo) || l.Enabled(slog.LevelDebug) {
		t.Error("level gating wrong")
	}
}

func TestJSONLogger(t *testing.T) {
	var buf bytes.Buffer
	l := mustFlagLogger(t, &buf, "json", "debug")
	l.Debug("acceptance point done", "ser", 1e-11, "jobs", 20)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not one JSON object per line: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "acceptance point done" || rec["jobs"] != float64(20) {
		t.Errorf("record = %v", rec)
	}
}
