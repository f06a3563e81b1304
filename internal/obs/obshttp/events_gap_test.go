package obshttp

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestEventsSSEGapMarker: a watcher further behind than the in-memory
// ring gets an explicit gap frame naming the evicted sequence range
// before the replay, instead of silently skipped events; a caught-up
// watcher gets no gap frame.
func TestEventsSSEGapMarker(t *testing.T) {
	log := obs.NewEventLog()
	// Overflow the replay ring so the oldest events are evicted.
	oldest := int64(1)
	for oldest == 1 {
		for i := 0; i < 512; i++ {
			log.Emit("tick", "", nil)
		}
		oldest = log.Events(0)[0].Seq
	}

	srv := httptest.NewServer(Handler(Options{Events: log}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// since=0: the watcher asks for history the ring no longer holds.
	r, done := openStream(t, srv.URL+"/events?progress_ms=0")
	frames := readFrames(ctx, t, r, 2)
	done()
	if frames[0].Event != "gap" {
		t.Fatalf("first frame %q, want gap", frames[0].Event)
	}
	var gap struct{ From, To, Missing int64 }
	if err := json.Unmarshal([]byte(frames[0].Data), &gap); err != nil {
		t.Fatal(err)
	}
	if gap.From != 1 || gap.To != oldest-1 || gap.Missing != oldest-1 {
		t.Errorf("gap = %+v, want from 1 to %d missing %d", gap, oldest-1, oldest-1)
	}
	if frames[1].Event != "tick" || frames[1].ID != strconv.FormatInt(oldest, 10) {
		t.Errorf("replay after gap starts at %s/%s, want tick/%d", frames[1].Event, frames[1].ID, oldest)
	}

	// A watcher inside the ring window sees no gap frame.
	r2, done2 := openStream(t, srv.URL+"/events?progress_ms=0&since="+strconv.FormatInt(log.Seq()-1, 10))
	frames2 := readFrames(ctx, t, r2, 1)
	done2()
	if frames2[0].Event == "gap" {
		t.Errorf("caught-up watcher got a gap frame: %+v", frames2[0])
	}
}
