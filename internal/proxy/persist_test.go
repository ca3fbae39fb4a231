package proxy

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// startEcho starts an echo-mode proxy with sealed persistence.
func startEcho(t *testing.T, statePath string, seed []byte) *Proxy {
	t.Helper()
	p, err := New(Config{
		K:            2,
		EchoMode:     true,
		Seed:         1,
		StatePath:    statePath,
		PlatformSeed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return p
}

func shutdown(t *testing.T, p *Proxy) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryPersistsAcrossRestart(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "history.sealed")
	seed := []byte("same-machine")

	p1 := startEcho(t, statePath, seed)
	for _, q := range []string{"alpha query", "beta query", "gamma query"} {
		plainSearch(t, p1, q)
	}
	if got := p1.Stats().HistoryLen; got != 3 {
		t.Fatalf("history len before shutdown = %d", got)
	}
	shutdown(t, p1)

	// The sealed blob exists and is not plaintext.
	blob, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"alpha query", "beta query"} {
		if containsSub(blob, []byte(q)) {
			t.Fatalf("sealed state leaks query %q", q)
		}
	}

	// Restart on the "same machine": history restored.
	p2 := startEcho(t, statePath, seed)
	defer shutdown(t, p2)
	st := p2.Stats()
	if st.HistoryLen != 3 {
		t.Errorf("restored history len = %d, want 3", st.HistoryLen)
	}
	if st.Enclave.HeapBytes == 0 {
		t.Error("restored history not charged to EPC")
	}
}

func TestPersistedStateUnreadableOnOtherMachine(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "history.sealed")
	p1 := startEcho(t, statePath, []byte("machine-a"))
	plainSearch(t, p1, "some query")
	shutdown(t, p1)

	// A different platform (different fuse key) cannot unseal: New fails.
	if _, err := New(Config{
		K:            2,
		EchoMode:     true,
		Seed:         1,
		StatePath:    statePath,
		PlatformSeed: []byte("machine-b"),
	}); err == nil {
		t.Fatal("foreign platform restored sealed state")
	}
}

func TestMissingStateFileIsFreshStart(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "nonexistent.sealed")
	p := startEcho(t, statePath, []byte("m"))
	defer shutdown(t, p)
	if got := p.Stats().HistoryLen; got != 0 {
		t.Errorf("fresh start history len = %d", got)
	}
}

func TestCorruptStateFileRejected(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "corrupt.sealed")
	if err := os.WriteFile(statePath, []byte("not a sealed blob"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{
		K:            2,
		EchoMode:     true,
		Seed:         1,
		StatePath:    statePath,
		PlatformSeed: []byte("m"),
	}); err == nil {
		t.Fatal("corrupt state accepted")
	}
}

// Same-vendor upgraded build (different MRENCLAVE, same MRSIGNER) can
// restore — the MRSIGNER sealing policy at work.
func TestUpgradedBuildRestoresState(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "history.sealed")
	seed := []byte("same-machine")

	p1 := startEcho(t, statePath, seed)
	plainSearch(t, p1, "persisted query")
	shutdown(t, p1)

	// "Upgrade": different k changes the measurement but not the signer.
	p2, err := New(Config{
		K:            3,
		EchoMode:     true,
		Seed:         1,
		StatePath:    statePath,
		PlatformSeed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, p2)
	if p1.Measurement() == p2.Measurement() {
		t.Fatal("test invalid: measurements should differ")
	}
	if got := p2.Stats().HistoryLen; got != 1 {
		t.Errorf("upgraded build restored %d queries, want 1", got)
	}
}

func containsSub(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
