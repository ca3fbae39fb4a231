package enclave

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// buildAsyncEnclave builds a minimal enclave with async workers and one
// ecall ("submit") that posts an async echo ocall and returns its handle —
// the staged pattern the proxy's pipeline uses.
func buildAsyncEnclave(t *testing.T, workers int) *Enclave {
	t.Helper()
	p := NewPlatform()
	b := p.NewBuilder(Config{AsyncWorkers: workers})
	if err := b.RegisterECall("submit", func(env Env, arg []byte) ([]byte, error) {
		id, err := env.OCallAsync("echo", arg)
		if err != nil {
			return nil, err
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, id)
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterOCall("echo", func(arg, _ []byte) ([]byte, error) {
		return append([]byte("echo:"), arg...), nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Destroy)
	return e
}

func TestAsyncOCallRoundTrip(t *testing.T) {
	e := buildAsyncEnclave(t, 2)
	out, err := e.ECall(context.Background(), "submit", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	id := binary.LittleEndian.Uint64(out)
	select {
	case c := <-e.Completions():
		if c.ID != id {
			t.Fatalf("completion id %d, want %d", c.ID, id)
		}
		if c.Err != nil {
			t.Fatalf("completion error: %v", c.Err)
		}
		if string(c.Result) != "echo:hello" {
			t.Fatalf("completion result %q", c.Result)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no completion")
	}
	st := e.Stats()
	if st.AsyncSubmitted != 1 || st.AsyncCompleted != 1 {
		t.Fatalf("async counters = %d/%d, want 1/1", st.AsyncSubmitted, st.AsyncCompleted)
	}
}

func TestAsyncDisabledErrors(t *testing.T) {
	p := NewPlatform()
	b := p.NewBuilder(Config{})
	if err := b.RegisterECall("submit", func(env Env, arg []byte) ([]byte, error) {
		_, err := env.OCallAsync("echo", arg)
		return nil, err
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	if _, err := e.ECall(context.Background(), "submit", nil); !errors.Is(err, ErrAsyncDisabled) {
		t.Fatalf("err = %v, want ErrAsyncDisabled", err)
	}
	if e.Completions() != nil {
		t.Fatal("completions ring should be nil when async is disabled")
	}
}

func TestAsyncUnknownOCallRejectedAtSubmit(t *testing.T) {
	p := NewPlatform()
	b := p.NewBuilder(Config{AsyncWorkers: 1})
	if err := b.RegisterECall("submit", func(env Env, arg []byte) ([]byte, error) {
		_, err := env.OCallAsync("nope", arg)
		return nil, err
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	if _, err := e.ECall(context.Background(), "submit", nil); !errors.Is(err, ErrUnknownOCall) {
		t.Fatalf("err = %v, want ErrUnknownOCall", err)
	}
}

// TestAsyncManyConcurrent floods the rings from concurrent ecalls and
// checks every submission gets exactly one completion.
func TestAsyncManyConcurrent(t *testing.T) {
	e := buildAsyncEnclave(t, 4)
	const n = 200
	seen := make(map[uint64]bool, n)
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			c := <-e.Completions()
			mu.Lock()
			if seen[c.ID] {
				t.Errorf("duplicate completion %d", c.ID)
			}
			seen[c.ID] = true
			mu.Unlock()
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.ECall(context.Background(), "submit", []byte(fmt.Sprint(i))); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		mu.Lock()
		t.Fatalf("only %d/%d completions", len(seen), n)
	}
	if st := e.Stats(); st.AsyncSubmitted != n || st.AsyncCompleted != n {
		t.Fatalf("async counters = %d/%d, want %d/%d", st.AsyncSubmitted, st.AsyncCompleted, n, n)
	}
}

// TestAsyncDestroyMidFlight destroys the enclave while ocalls are in
// flight: workers must exit, submissions must fail with ErrDestroyed, and
// nothing may hang.
func TestAsyncDestroyMidFlight(t *testing.T) {
	p := NewPlatform()
	release := make(chan struct{})
	b := p.NewBuilder(Config{AsyncWorkers: 2})
	if err := b.RegisterECall("submit", func(env Env, arg []byte) ([]byte, error) {
		_, err := env.OCallAsync("block", arg)
		return nil, err
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterOCall("block", func(_, _ []byte) ([]byte, error) {
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.ECall(context.Background(), "submit", nil); err != nil {
			t.Fatal(err)
		}
	}
	e.Destroy()
	close(release)
	// A post-destroy ecall is rejected before it can submit.
	if _, err := e.ECall(context.Background(), "submit", nil); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("post-destroy ecall err = %v, want ErrDestroyed", err)
	}
}
