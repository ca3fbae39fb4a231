package tor

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func testNetwork(t *testing.T, exit ExitHandler) *Network {
	t.Helper()
	n, err := NewNetwork(NetworkConfig{
		Relays:    5,
		HopMedian: time.Millisecond,
		Scale:     1,
		Seed:      1,
		Exit:      exit,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestCellPackUnpackRoundTrip(t *testing.T) {
	f := func(msg []byte) bool {
		cells, err := packMessage(7, 0, msg)
		if err != nil {
			return false
		}
		got := unpackMessage(cells)
		want := msg
		if len(want) == 0 {
			want = []byte{0}
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCellLayeringCommutes(t *testing.T) {
	var k1, k2 [32]byte
	k1[0], k2[0] = 1, 2
	cells, err := packMessage(3, 0, []byte("hello onion"))
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	orig := c
	// Wrap two layers, unwrap in the same direction: CTR XOR cancels.
	if err := cryptCellBody(k1, dirForward, &c); err != nil {
		t.Fatal(err)
	}
	if err := cryptCellBody(k2, dirForward, &c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c[16:], orig[16:]) {
		t.Fatal("encryption was a no-op")
	}
	if err := cryptCellBody(k1, dirForward, &c); err != nil {
		t.Fatal(err)
	}
	if err := cryptCellBody(k2, dirForward, &c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c[:], orig[:]) {
		t.Fatal("layers did not cancel")
	}
}

func TestCellDirectionsDiffer(t *testing.T) {
	var k [32]byte
	cells, err := packMessage(3, 0, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := cells[0], cells[0]
	if err := cryptCellBody(k, dirForward, &fwd); err != nil {
		t.Fatal(err)
	}
	if err := cryptCellBody(k, dirBackward, &bwd); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fwd[16:], bwd[16:]) {
		t.Error("forward and backward keystreams identical")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(NetworkConfig{Relays: 2}); err == nil {
		t.Error("2 relays accepted")
	}
}

func TestCircuitFetchEcho(t *testing.T) {
	n := testNetwork(t, func(req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	c, err := n.BuildCircuit(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Fetch([]byte("chicken recipe"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:chicken recipe" {
		t.Errorf("resp = %q", resp)
	}
}

func TestCircuitFetchLargePayload(t *testing.T) {
	n := testNetwork(t, func(req []byte) ([]byte, error) {
		return bytes.Repeat(req, 100), nil // multi-cell response
	})
	c, err := n.BuildCircuit(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := bytes.Repeat([]byte("0123456789"), 100) // 1000 bytes, 3 cells
	resp, err := c.Fetch(req, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, bytes.Repeat(req, 100)) {
		t.Errorf("resp len = %d, want %d", len(resp), len(req)*100)
	}
}

func TestCircuitSequentialFetches(t *testing.T) {
	n := testNetwork(t, func(req []byte) ([]byte, error) { return req, nil })
	c, err := n.BuildCircuit(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		msg := []byte(fmt.Sprintf("query %d", i))
		resp, err := c.Fetch(msg, 5*time.Second)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !bytes.Equal(resp, msg) {
			t.Fatalf("fetch %d: got %q", i, resp)
		}
	}
}

func TestParallelCircuits(t *testing.T) {
	n := testNetwork(t, func(req []byte) ([]byte, error) { return req, nil })
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.BuildCircuit(3)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			msg := []byte(fmt.Sprintf("parallel %d", i))
			resp, err := c.Fetch(msg, 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(resp, msg) {
				errs <- fmt.Errorf("got %q want %q", resp, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestExitErrorPropagates(t *testing.T) {
	n := testNetwork(t, func(req []byte) ([]byte, error) {
		return nil, fmt.Errorf("engine down")
	})
	c, err := n.BuildCircuit(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Fetch([]byte("q"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(resp), "ERR ") {
		t.Errorf("resp = %q", resp)
	}
}

func TestClosedCircuitRejectsFetch(t *testing.T) {
	n := testNetwork(t, nil)
	c, err := n.BuildCircuit(3)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // double close safe
	if _, err := c.Fetch([]byte("q"), time.Second); err == nil {
		t.Error("closed circuit accepted fetch")
	}
}

func TestClosedNetworkRejectsBuild(t *testing.T) {
	n := testNetwork(t, nil)
	n.Close()
	if _, err := n.BuildCircuit(3); err == nil {
		t.Error("closed network accepted build")
	}
}

func TestBuildCircuitValidation(t *testing.T) {
	n := testNetwork(t, nil)
	if _, err := n.BuildCircuit(0); err == nil {
		t.Error("0 hops accepted")
	}
	if _, err := n.BuildCircuit(99); err == nil {
		t.Error("too many hops accepted")
	}
	if len(n.relays) != 5 {
		t.Errorf("%d relays in the directory, want 5", len(n.relays))
	}
}

func TestDistinctHops(t *testing.T) {
	n := testNetwork(t, nil)
	for i := 0; i < 10; i++ {
		c, err := n.BuildCircuit(3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]struct{}{}
		for _, h := range c.hops {
			if _, dup := seen[h]; dup {
				t.Fatal("repeated relay in circuit")
			}
			seen[h] = struct{}{}
		}
		c.Close()
	}
}

// Relays must never see the plaintext request in forward cells they relay
// (only the exit, after removing the last layer, does).
func TestIntermediateRelaysSeeOnlyCiphertext(t *testing.T) {
	secret := []byte("very identifiable plaintext query")
	n := testNetwork(t, func(req []byte) ([]byte, error) { return nil, nil })
	c, err := n.BuildCircuit(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Wrap the message exactly as Fetch would and verify that after only
	// the guard's layer is removed the plaintext is still hidden.
	cells, err := packMessage(c.id, 10000, secret)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := cells[0]
	for i := len(c.keys) - 1; i >= 0; i-- {
		if err := cryptCellBody(c.keys[i], dirForward, &wrapped); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Contains(wrapped[:], secret) {
		t.Fatal("fully wrapped cell leaks plaintext")
	}
	if err := cryptCellBody(c.keys[0], dirForward, &wrapped); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wrapped[:], secret) {
		t.Fatal("cell after guard layer leaks plaintext")
	}
	if err := cryptCellBody(c.keys[1], dirForward, &wrapped); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wrapped[:], secret) {
		t.Fatal("cell after middle layer leaks plaintext")
	}
	// Only after the exit layer is the payload visible.
	if err := cryptCellBody(c.keys[2], dirForward, &wrapped); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(wrapped[:], secret) {
		t.Fatal("exit cannot recover plaintext")
	}
}

func BenchmarkCircuitFetch(b *testing.B) {
	n, err := NewNetwork(NetworkConfig{
		Relays:    5,
		HopMedian: 100 * time.Microsecond,
		Scale:     1,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	c, err := n.BuildCircuit(3)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte("q"), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fetch(payload, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
