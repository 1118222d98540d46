package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/service"
)

func TestShedderAdmitsUnderLimit(t *testing.T) {
	s := newShedder(ShedConfig{TargetP99: 10 * time.Millisecond, MaxInFlight: 2, MinInFlight: 1}, nil)
	if !s.tryAcquire() || !s.tryAcquire() {
		t.Fatal("first two acquires should be admitted")
	}
	if s.tryAcquire() {
		t.Fatal("third acquire over limit 2 should be shed")
	}
	if s.inFlight() != 2 || s.Admitted() != 2 || s.Rejected() != 1 {
		t.Errorf("inflight=%d admitted=%d rejected=%d, want 2/2/1", s.inFlight(), s.Admitted(), s.Rejected())
	}
	s.Release(time.Millisecond)
	if !s.tryAcquire() {
		t.Fatal("acquire after release should be admitted")
	}
}

func TestShedderAIMDDecreasesOverTarget(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	s := newShedder(ShedConfig{
		TargetP99:   5 * time.Millisecond,
		MaxInFlight: 64, MinInFlight: 2,
		Window: 10 * time.Millisecond,
	}, clk)
	// A window of 50ms observations blows the 5ms target: the limit must
	// fall by shedDecrease on adaptation.
	for i := 0; i < 20; i++ {
		if !s.tryAcquire() {
			t.Fatal("acquire under open limit")
		}
		s.Release(50 * time.Millisecond)
	}
	clk.Advance(20 * time.Millisecond) // a full window has elapsed
	if !s.tryAcquire() {
		t.Fatal("acquire")
	}
	s.Release(50 * time.Millisecond) // triggers adapt
	if got := s.Limit(); got != 48 {
		t.Errorf("limit after over-target window = %d, want 48 (64 * 0.75)", got)
	}
	// Repeated over-target windows keep decreasing but floor at MinInFlight.
	for w := 0; w < 12; w++ {
		clk.Advance(20 * time.Millisecond)
		if !s.tryAcquire() {
			t.Fatal("acquire")
		}
		s.Release(50 * time.Millisecond)
	}
	if got := s.Limit(); got != 2 {
		t.Errorf("limit after sustained overload = %d, want MinInFlight 2", got)
	}
}

func TestShedderRecoversAfterPressure(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	s := newShedder(ShedConfig{
		TargetP99:   5 * time.Millisecond,
		MaxInFlight: 64, MinInFlight: 2,
		Window: 10 * time.Millisecond,
	}, clk)
	// Crush the limit to the floor.
	for w := 0; w < 12; w++ {
		clk.Advance(20 * time.Millisecond)
		if !s.tryAcquire() {
			t.Fatal("acquire")
		}
		s.Release(50 * time.Millisecond)
	}
	if s.Limit() != 2 {
		t.Fatalf("limit = %d, want floor 2", s.Limit())
	}
	// Healthy windows with rejection pressure grow the limit back toward
	// the cap.
	for w := 0; w < 30 && s.Limit() < 64; w++ {
		// Sustain demand: fill the limit, shed one, observe fast calls.
		for s.tryAcquire() {
		}
		for s.inFlight() > 0 {
			s.Release(time.Millisecond)
		}
		clk.Advance(20 * time.Millisecond)
		if !s.tryAcquire() {
			t.Fatal("acquire")
		}
		s.Release(time.Millisecond)
	}
	if got := s.Limit(); got != 64 {
		t.Errorf("limit after recovery = %d, want back at MaxInFlight 64", got)
	}
}

func TestShedderConcurrentInvariant(t *testing.T) {
	s := newShedder(ShedConfig{TargetP99: time.Millisecond, MaxInFlight: 8, MinInFlight: 8}, nil)
	var peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !s.tryAcquire() {
					continue
				}
				if in := s.inFlight(); in > peak.Load() {
					peak.Store(in)
				}
				s.Release(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 8 {
		t.Errorf("observed %d in flight, limit 8 breached", p)
	}
	if s.inFlight() != 0 {
		t.Errorf("inflight = %d after all released, want 0", s.inFlight())
	}
}

func TestShedStageRejectsWithErrShed(t *testing.T) {
	c := newClient(t, Config{Shed: ShedConfig{TargetP99: 50 * time.Millisecond, MaxInFlight: 1, MinInFlight: 1}})
	block := make(chan struct{})
	started := make(chan struct{})
	slow := service.Func{
		Meta: service.Info{Name: "slow", Category: "t"},
		Fn: func(ctx context.Context, _ service.Request) (service.Response, error) {
			close(started)
			<-block
			return service.Response{Body: []byte("ok")}, nil
		},
	}
	if err := c.Register(slow); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Invoke(context.Background(), "slow", service.Request{})
		done <- err
	}()
	<-started
	// The single slot is held: the second call must shed fast.
	_, err := c.Invoke(context.Background(), "slow", service.Request{})
	if !errors.Is(err, errShed) {
		t.Fatalf("second call err = %v, want errShed", err)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("first call err = %v", err)
	}
	sh := c.Shedder()
	if sh == nil {
		t.Fatal("Shedder() = nil with shedding enabled")
	}
	if sh.Admitted() != 1 || sh.Rejected() != 1 {
		t.Errorf("admitted=%d rejected=%d, want 1/1", sh.Admitted(), sh.Rejected())
	}
}

func TestShedDisabledByDefault(t *testing.T) {
	c := newClient(t, Config{})
	if c.Shedder() != nil {
		t.Error("Shedder() should be nil when Config.Shed is zero")
	}
}

// TestShedSlotReleasedOnPanic: a service that panics gives its admission
// slot back, so panicking calls cannot fill the window and shed every
// later call.
func TestShedSlotReleasedOnPanic(t *testing.T) {
	c := newClient(t, Config{Shed: ShedConfig{TargetP99: 50 * time.Millisecond, MaxInFlight: 2, MinInFlight: 1}})
	c.mustRegister(service.Func{
		Meta: service.Info{Name: "boom", Category: "t"},
		Fn: func(context.Context, service.Request) (service.Response, error) {
			panic("boom")
		},
	})
	for i := 0; i < 3; i++ {
		res, err := c.InvokeAll(context.Background(), "t", service.Request{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Err == nil || errors.Is(res[0].Err, errShed) {
			t.Fatalf("call %d: results %+v, want the service's panic", i, res)
		}
	}
	if n := c.Shedder().inFlight(); n != 0 {
		t.Errorf("%d calls in flight after three panics, want 0", n)
	}
}
