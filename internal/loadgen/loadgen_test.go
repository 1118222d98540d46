package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

func getReq(i int, src *xrand.Source) *http.Request {
	return httptest.NewRequest("GET", "/ping", nil)
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
}

func TestClosedLoopAllOK(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Handler:    okHandler(),
		NewRequest: getReq,
		Workers:    4,
		Duration:   50 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 {
		t.Fatal("closed loop sent no requests")
	}
	if rep.OK != rep.Sent {
		t.Errorf("OK = %d, Sent = %d: want all OK against a 200 handler", rep.OK, rep.Sent)
	}
	if rep.Goodput() <= 0 {
		t.Errorf("Goodput = %v, want > 0", rep.Goodput())
	}
	if rep.OKLatency.Count != uint64(rep.OK) {
		t.Errorf("OKLatency.Count = %d, want %d", rep.OKLatency.Count, rep.OK)
	}
}

func TestShedClassification(t *testing.T) {
	var n atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	rep, err := Run(context.Background(), Config{
		Handler:    h,
		NewRequest: getReq,
		Workers:    2,
		Duration:   30 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Error("alternating 429 handler produced no Shed classifications")
	}
	if rep.OK+rep.Shed != rep.Sent {
		t.Errorf("OK(%d) + Shed(%d) != Sent(%d)", rep.OK, rep.Shed, rep.Sent)
	}
	// Shed responses never enter the admitted-latency distribution.
	if rep.AdmittedLatency.Count != uint64(rep.OK) {
		t.Errorf("AdmittedLatency.Count = %d, want %d (OK only)", rep.AdmittedLatency.Count, rep.OK)
	}
}

func TestTimeoutClassification(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(time.Second):
		}
		w.WriteHeader(http.StatusOK)
	})
	rep, err := Run(context.Background(), Config{
		Handler:    h,
		NewRequest: getReq,
		Workers:    2,
		Duration:   40 * time.Millisecond,
		Timeout:    5 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.Timeouts != rep.Sent {
		t.Errorf("Timeouts = %d, Sent = %d: a 1s handler under a 5ms budget must time out every request", rep.Timeouts, rep.Sent)
	}
	if rep.OK != 0 {
		t.Errorf("OK = %d, want 0", rep.OK)
	}
}

func TestOpenLoopDropsWhenSaturated(t *testing.T) {
	block := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-block:
		}
		w.WriteHeader(http.StatusOK)
	})
	defer close(block)
	rep, err := Run(context.Background(), Config{
		Handler:    h,
		NewRequest: getReq,
		Arrival:    OpenLoop,
		Rate:       2000,
		Workers:    2,
		Duration:   50 * time.Millisecond,
		Timeout:    200 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2000/s arrivals into 2 permanently-blocked workers: nearly every
	// arrival finds the pool busy.
	if rep.Dropped == 0 {
		t.Errorf("open loop at saturation dropped nothing (sent %d)", rep.Sent)
	}
}

func TestOpenLoopRateShape(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Handler:    okHandler(),
		NewRequest: getReq,
		Arrival:    OpenLoop,
		Rate:       500,
		Workers:    64,
		Duration:   200 * time.Millisecond,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~100 arrivals expected; accept a wide band — this is a shape test,
	// not a statistics exam.
	if rep.Sent < 30 || rep.Sent > 300 {
		t.Errorf("open loop at 500/s for 200ms sent %d, want roughly 100", rep.Sent)
	}
	if rep.OK != rep.Sent-rep.Dropped {
		t.Errorf("OK = %d, want Sent-Dropped = %d", rep.OK, rep.Sent-rep.Dropped)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{NewRequest: getReq}); err == nil {
		t.Error("missing Handler should error")
	}
	if _, err := Run(context.Background(), Config{Handler: okHandler()}); err == nil {
		t.Error("missing NewRequest should error")
	}
	if _, err := Run(context.Background(), Config{Handler: okHandler(), NewRequest: getReq, Arrival: OpenLoop}); err == nil {
		t.Error("OpenLoop without Rate should error")
	}
}

func TestScheduleFiresInOrderAndIsDeterministic(t *testing.T) {
	var fired []string
	var mu chan struct{} = make(chan struct{}, 1)
	add := func(name string) func() {
		return func() {
			mu <- struct{}{}
			fired = append(fired, name)
			<-mu
		}
	}
	s := newSchedule(
		Event{At: 20 * time.Millisecond, Name: "b", Do: add("b")},
		Event{At: 5 * time.Millisecond, Name: "a", Do: add("a")},
		Event{At: 30 * time.Millisecond, Name: "c", Do: add("c")},
	)
	s.Play(context.Background())
	if len(fired) != 3 || fired[0] != "a" || fired[1] != "b" || fired[2] != "c" {
		t.Errorf("fired = %v, want [a b c]", fired)
	}

	// RandomStorms: same seed, same schedule.
	faults := []Fault{{Name: "down", On: func() {}, Off: func() {}}, {Name: "lat", On: func() {}, Off: func() {}}}
	s1 := RandomStorms(11, time.Second, 4, faults).Events()
	s2 := RandomStorms(11, time.Second, 4, faults).Events()
	if len(s1) != len(s2) || len(s1) != 8 {
		t.Fatalf("schedules have %d/%d events, want 8 each", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].At != s2[i].At || s1[i].Name != s2[i].Name {
			t.Errorf("event %d differs: %v@%v vs %v@%v", i, s1[i].Name, s1[i].At, s2[i].Name, s2[i].At)
		}
		if s1[i].At > time.Second {
			t.Errorf("event %d at %v exceeds the horizon", i, s1[i].At)
		}
	}
}

func TestSchedulePlayRespectsContext(t *testing.T) {
	fired := false
	s := newSchedule(Event{At: time.Hour, Name: "never", Do: func() { fired = true }})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Play(ctx)
	if fired {
		t.Error("event fired despite cancelled context")
	}
	if time.Since(start) > time.Second {
		t.Error("Play did not return promptly on cancel")
	}
}
