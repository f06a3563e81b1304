package retry

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestDelayDeterministic: Delay is a pure function of the policy and
// the attempt number, and the zero policy falls back to the default
// 250ms base and 10s cap.
func TestDelayDeterministic(t *testing.T) {
	p := Policy{MaxAttempts: 10}
	for attempt := 1; attempt <= 8; attempt++ {
		if a, b := p.Delay(attempt), p.Delay(attempt); a != b {
			t.Errorf("attempt %d: Delay not deterministic: %v vs %v", attempt, a, b)
		}
	}
	want := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second,
		2 * time.Second, 4 * time.Second, 8 * time.Second, 10 * time.Second, 10 * time.Second}
	for i, w := range want {
		if d := p.Delay(i + 1); d != w {
			t.Errorf("default Delay(%d) = %v, want %v", i+1, d, w)
		}
	}
}

// TestDelayGrowthAndCap: delays double from BaseDelay and never exceed
// MaxDelay, however large the attempt number; attempts below 1 count as
// the first.
func TestDelayGrowthAndCap(t *testing.T) {
	p := Policy{MaxAttempts: 20, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 100, 100}
	for i, w := range want {
		if d := p.Delay(i + 1); d != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i+1, d, w*time.Millisecond)
		}
	}
	for _, attempt := range []int{7, 64, 1 << 30} {
		if d := p.Delay(attempt); d != 100*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want the 100ms cap", attempt, d)
		}
	}
	if d := p.Delay(0); d != 10*time.Millisecond {
		t.Errorf("Delay(0) = %v, want the 10ms base", d)
	}
}

// TestExhausted: the budget includes the first run; a <=1 budget never
// retries.
func TestExhausted(t *testing.T) {
	p := Policy{MaxAttempts: 3}
	for attempts, want := range map[int]bool{0: false, 1: false, 2: false, 3: true, 4: true} {
		if got := p.Exhausted(attempts); got != want {
			t.Errorf("MaxAttempts=3 Exhausted(%d) = %v, want %v", attempts, got, want)
		}
	}
	if !(Policy{}).Exhausted(1) {
		t.Error("zero policy should exhaust after one attempt")
	}
}

// TestIsRetryable: explicit marks win however wrapped; transient I/O
// errnos and short writes are retryable; everything else is permanent.
func TestIsRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("spec parse error"), false},
		{"marked retryable", Retryable(errors.New("x")), true},
		{"marked permanent", Permanent(syscall.ENOSPC), false},
		{"wrapped mark", fmt.Errorf("run: %w", Retryable(errors.New("x"))), true},
		{"short write", fmt.Errorf("journal: %w", io.ErrShortWrite), true},
		{"deadline", os.ErrDeadlineExceeded, true},
		{"permission", fs.ErrPermission, false},
		{"enospc", &fs.PathError{Op: "write", Path: "j", Err: syscall.ENOSPC}, true},
		{"ebusy", syscall.EBUSY, true},
		{"eio", fmt.Errorf("flush: %w", syscall.EIO), true},
		{"enoent", syscall.ENOENT, false},
		{"canceled", errors.New("context canceled"), false},
	}
	for _, tc := range cases {
		if got := IsRetryable(tc.err); got != tc.want {
			t.Errorf("IsRetryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMarksUnwrap: marked errors keep the underlying error reachable for
// errors.Is, and nil stays nil.
func TestMarksUnwrap(t *testing.T) {
	base := syscall.ENOSPC
	if !errors.Is(Retryable(base), syscall.ENOSPC) {
		t.Error("Retryable hides the wrapped error from errors.Is")
	}
	if Retryable(nil) != nil || Permanent(nil) != nil {
		t.Error("marking nil should stay nil")
	}
	// The innermost mark is overridden by an outer one (errors.As finds
	// the outermost first).
	double := Permanent(Retryable(base))
	if IsRetryable(double) {
		t.Error("outer Permanent mark should win over inner Retryable")
	}
}
