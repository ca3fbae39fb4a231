package securechannel

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// RFC 5869 test vector A.1 (SHA-256).
func TestHKDFVectorA1(t *testing.T) {
	ikm, _ := hex.DecodeString("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt, _ := hex.DecodeString("000102030405060708090a0b0c")
	info, _ := hex.DecodeString("f0f1f2f3f4f5f6f7f8f9")
	wantPRK, _ := hex.DecodeString("077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	wantOKM, _ := hex.DecodeString("3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")

	prk := hkdfExtract(salt, ikm)
	if !bytes.Equal(prk, wantPRK) {
		t.Errorf("PRK = %x", prk)
	}
	okm, err := hkdfExpand(prk, info, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(okm, wantOKM) {
		t.Errorf("OKM = %x", okm)
	}
}

// RFC 5869 test vector A.3 (zero-length salt and info).
func TestHKDFVectorA3(t *testing.T) {
	ikm, _ := hex.DecodeString("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	wantOKM, _ := hex.DecodeString("8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")
	okm, err := DeriveKey(ikm, nil, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(okm, wantOKM) {
		t.Errorf("OKM = %x", okm)
	}
}

func TestHKDFExpandTooLong(t *testing.T) {
	if _, err := hkdfExpand(make([]byte, 32), nil, 256*32+1); err == nil {
		t.Error("expected length error")
	}
}

func established(t *testing.T) (client, server *Channel) {
	t.Helper()
	ch, err := NewHandshake(RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewHandshake(RoleServer)
	if err != nil {
		t.Fatal(err)
	}
	client, err = ch.Complete(sh.Offer())
	if err != nil {
		t.Fatal(err)
	}
	server, err = sh.Complete(ch.Offer())
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

func TestChannelRoundTrip(t *testing.T) {
	client, server := established(t)
	msg := []byte("private web search query")
	rec, err := client.Seal(msg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := server.Open(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Errorf("got %q", pt)
	}
	// And the reverse direction.
	rec2, err := server.Seal([]byte("results"))
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := client.Open(rec2)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt2) != "results" {
		t.Errorf("got %q", pt2)
	}
}

func TestChannelDirectionsIndependent(t *testing.T) {
	client, server := established(t)
	rec, err := client.Seal([]byte("to server"))
	if err != nil {
		t.Fatal(err)
	}
	// The client cannot open its own record (different direction keys).
	if _, err := client.Open(rec); err == nil {
		t.Error("client opened its own record")
	}
	if _, err := server.Open(rec); err != nil {
		t.Errorf("server failed to open: %v", err)
	}
}

func TestChannelReplayRejected(t *testing.T) {
	client, server := established(t)
	rec, err := client.Seal([]byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Open(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Open(rec); !errors.Is(err, ErrReplay) {
		t.Errorf("replay err = %v", err)
	}
}

// TestChannelReorderWindow: both carriers reorder records in flight, so a
// late record inside the anti-replay window is accepted — exactly once —
// and one that fell out of the window is refused unseen.
func TestChannelReorderWindow(t *testing.T) {
	client, server := established(t)
	recs := make([][]byte, replayWindow+2)
	for i := range recs {
		rec, err := client.Seal([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	if _, err := server.Open(recs[2]); err != nil {
		t.Fatal(err)
	}
	if pt, err := server.Open(recs[1]); err != nil || pt[0] != 1 {
		t.Fatalf("late record inside the window: %v, %v", pt, err)
	}
	if _, err := server.Open(recs[1]); !errors.Is(err, ErrReplay) {
		t.Errorf("late record, second time: err = %v", err)
	}
	if _, err := server.Open(recs[2]); !errors.Is(err, ErrReplay) {
		t.Errorf("newest record, second time: err = %v", err)
	}
	// A jump of a whole window forgets nothing it must remember: seq 1 is
	// now replayWindow+1 behind, never seen, and refused all the same.
	last := len(recs) - 1
	if _, err := server.Open(recs[last]); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Open(recs[0]); !errors.Is(err, ErrReplay) {
		t.Errorf("record older than the window: err = %v", err)
	}
	// recs[2] now sits on the window's far edge with its seen bit intact;
	// its unseen neighbour is still welcome.
	if _, err := server.Open(recs[2]); !errors.Is(err, ErrReplay) {
		t.Errorf("seen record on the window's edge: err = %v", err)
	}
	if pt, err := server.Open(recs[3]); err != nil || pt[0] != 3 {
		t.Errorf("unseen record next to the window's edge: %v, %v", pt, err)
	}
}

func TestChannelTamperRejected(t *testing.T) {
	client, server := established(t)
	rec, err := client.Seal([]byte("query"))
	if err != nil {
		t.Fatal(err)
	}
	rec[len(rec)-1] ^= 0x01
	if _, err := server.Open(rec); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tamper err = %v", err)
	}
	if _, err := server.Open([]byte("abc")); !errors.Is(err, ErrShortRecord) {
		t.Errorf("short err = %v", err)
	}
}

func TestSameRoleRejected(t *testing.T) {
	a, err := NewHandshake(RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHandshake(RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Complete(b.Offer()); !errors.Is(err, ErrRole) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewHandshake(Role(9)); err == nil {
		t.Error("bad role accepted")
	}
}

func TestMITMDifferentKeyFails(t *testing.T) {
	// A man in the middle who substitutes its own key produces a channel
	// whose records the honest server cannot open.
	ch, err := NewHandshake(RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewHandshake(RoleServer)
	if err != nil {
		t.Fatal(err)
	}
	mitm, err := NewHandshake(RoleServer)
	if err != nil {
		t.Fatal(err)
	}
	// Client completes against the MITM's offer.
	clientChan, err := ch.Complete(mitm.Offer())
	if err != nil {
		t.Fatal(err)
	}
	// Honest server completes against the client's offer.
	serverChan, err := sh.Complete(ch.Offer())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := clientChan.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serverChan.Open(rec); err == nil {
		t.Error("server opened record keyed to MITM — ECDH broken")
	}
}

func TestOfferMarshalRoundTrip(t *testing.T) {
	h, err := NewHandshake(RoleServer)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := h.Offer().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalOffer(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Role != RoleServer || !bytes.Equal(back.PubKey, h.PublicKeyBytes()) {
		t.Error("round trip mismatch")
	}
	if _, err := UnmarshalOffer([]byte("{")); err == nil {
		t.Error("bad offer accepted")
	}
}

func TestChannelConcurrentSeal(t *testing.T) {
	client, server := established(t)
	const n = 200
	records := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := client.Seal([]byte("msg"))
			if err != nil {
				t.Errorf("seal: %v", err)
				return
			}
			records[i] = rec
		}(i)
	}
	wg.Wait()
	// All records must have distinct sequence numbers.
	seen := map[string]struct{}{}
	for _, rec := range records {
		key := string(rec[:8])
		if _, dup := seen[key]; dup {
			t.Fatal("duplicate sequence number")
		}
		seen[key] = struct{}{}
	}
	_ = server
}

func TestChannelRoundTripProperty(t *testing.T) {
	client, server := established(t)
	f := func(msg []byte) bool {
		rec, err := client.Seal(msg)
		if err != nil {
			return false
		}
		pt, err := server.Open(rec)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkChannelSealOpen(b *testing.B) {
	ch, _ := NewHandshake(RoleClient)
	sh, _ := NewHandshake(RoleServer)
	client, _ := ch.Complete(sh.Offer())
	server, _ := sh.Complete(ch.Offer())
	msg := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := client.Seal(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := server.Open(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHandshake(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ch, _ := NewHandshake(RoleClient)
		sh, _ := NewHandshake(RoleServer)
		if _, err := ch.Complete(sh.Offer()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSealOpenAllocateOnce: the record (or plaintext) is the only heap
// allocation of a Seal (or Open) — the nonce rides in the same buffer.
func TestSealOpenAllocateOnce(t *testing.T) {
	client, server := established(t)
	pt := []byte(`{"query":"chicken recipe","count":20}`)
	if n := testing.AllocsPerRun(100, func() { _, _ = client.Seal(pt) }); n > 1 {
		t.Errorf("Seal: %v allocs, want 1", n)
	}
	recs := make([][]byte, 0, 101)
	for i := 0; i < cap(recs); i++ {
		r, _ := client.Seal(pt)
		recs = append(recs, r)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		if _, err := server.Open(recs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n > 1 {
		t.Errorf("Open: %v allocs, want 1", n)
	}
}

// TestReplayWindowMatchesModel drives Open with shuffled, duplicated and
// far-jumping sequence numbers and checks every verdict against the rule
// itself: accept a sequence exactly once, and only while it is newer than
// everything seen or less than replayWindow behind the newest.
func TestReplayWindowMatchesModel(t *testing.T) {
	client, server := established(t)
	recs := make([][]byte, 6*replayWindow)
	for i := range recs {
		recs[i], _ = client.Seal(nil)
	}
	rng := rand.New(rand.NewSource(17))
	seen := make(map[int]bool)
	high := 0
	pos := 0
	for step := 0; step < 20000; step++ {
		// Mostly near the front (in-flight reordering), sometimes far back
		// (stale records) or far ahead (a jump that laps the ring).
		var seq int
		switch r := rng.Intn(100); {
		case r < 70:
			seq = pos + rng.Intn(40) - 20
		case r < 90:
			seq = pos - rng.Intn(2*replayWindow)
		default:
			seq = pos + rng.Intn(2*replayWindow)
		}
		if seq < 1 || seq > len(recs) {
			continue
		}
		want := !seen[seq] && (seq > high || high-seq < replayWindow)
		_, err := server.Open(recs[seq-1])
		if got := err == nil; got != want {
			t.Fatalf("step %d: Open(seq %d) with newest %d, seen=%v: accepted=%v, want %v", step, seq, high, seen[seq], got, want)
		}
		if want {
			seen[seq] = true
			high = max(high, seq)
		}
		pos = max(pos, seq) - rng.Intn(3) + 1
	}
}
