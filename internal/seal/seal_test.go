package seal

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"xsearch/internal/enclave"
)

func buildEnclave(t *testing.T, p *enclave.Platform, code string) *enclave.Enclave {
	t.Helper()
	b := p.NewBuilder(enclave.Config{})
	if err := b.AddData([]byte(code)); err != nil {
		t.Fatal(err)
	}
	b.SetSigner(enclave.Measurement{0x42})
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Destroy)
	return e
}

func TestSealUnsealRoundTrip(t *testing.T) {
	p := enclave.NewPlatform(enclave.WithFuseSeed([]byte("m1")))
	e := buildEnclave(t, p, "proxy")
	s, err := New(p, e, enclave.PolicyMRENCLAVE, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("query history state")
	aad := []byte("v1")
	blob, err := s.Seal(pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.Unseal(blob, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Errorf("round trip = %q", back)
	}
}

func TestUnsealWrongAAD(t *testing.T) {
	p := enclave.NewPlatform(enclave.WithFuseSeed([]byte("m1")))
	e := buildEnclave(t, p, "proxy")
	s, err := New(p, e, enclave.PolicyMRENCLAVE, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Seal([]byte("data"), []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Unseal(blob, []byte("v2")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v", err)
	}
}

func TestUnsealTamperedBlob(t *testing.T) {
	p := enclave.NewPlatform(enclave.WithFuseSeed([]byte("m1")))
	e := buildEnclave(t, p, "proxy")
	s, err := New(p, e, enclave.PolicyMRENCLAVE, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Seal([]byte("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xFF
	if _, err := s.Unseal(blob, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v", err)
	}
	if _, err := s.Unseal([]byte("xx"), nil); !errors.Is(err, ErrTooShort) {
		t.Errorf("short err = %v", err)
	}
}

func TestMRENCLAVEPolicyIsolation(t *testing.T) {
	p := enclave.NewPlatform(enclave.WithFuseSeed([]byte("m1")))
	e1 := buildEnclave(t, p, "proxy v1")
	e2 := buildEnclave(t, p, "proxy v2") // different code => different MRENCLAVE
	s1, err := New(p, e1, enclave.PolicyMRENCLAVE, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(p, e2, enclave.PolicyMRENCLAVE, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s1.Seal([]byte("secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Unseal(blob, nil); err == nil {
		t.Error("different enclave must not unseal MRENCLAVE-policy blob")
	}
}

func TestMRSIGNERPolicySharing(t *testing.T) {
	p := enclave.NewPlatform(enclave.WithFuseSeed([]byte("m1")))
	e1 := buildEnclave(t, p, "proxy v1")
	e2 := buildEnclave(t, p, "proxy v2") // same signer
	s1, err := New(p, e1, enclave.PolicyMRSIGNER, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(p, e2, enclave.PolicyMRSIGNER, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s1.Seal([]byte("upgradeable state"), nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s2.Unseal(blob, nil)
	if err != nil {
		t.Fatalf("same-signer enclave should unseal: %v", err)
	}
	if string(back) != "upgradeable state" {
		t.Errorf("got %q", back)
	}
}

func TestCrossPlatformIsolation(t *testing.T) {
	p1 := enclave.NewPlatform(enclave.WithFuseSeed([]byte("m1")))
	p2 := enclave.NewPlatform(enclave.WithFuseSeed([]byte("m2")))
	e1 := buildEnclave(t, p1, "proxy")
	e2 := buildEnclave(t, p2, "proxy") // identical code, other machine
	s1, err := New(p1, e1, enclave.PolicyMRENCLAVE, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(p2, e2, enclave.PolicyMRENCLAVE, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s1.Seal([]byte("secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Unseal(blob, nil); err == nil {
		t.Error("other platform must not unseal")
	}
}

func TestFuseSeedDeterminism(t *testing.T) {
	// Same seed simulates the same physical machine across restarts.
	p1 := enclave.NewPlatform(enclave.WithFuseSeed([]byte("same")))
	p2 := enclave.NewPlatform(enclave.WithFuseSeed([]byte("same")))
	e1 := buildEnclave(t, p1, "proxy")
	e2 := buildEnclave(t, p2, "proxy")
	s1, err := New(p1, e1, enclave.PolicyMRENCLAVE, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(p2, e2, enclave.PolicyMRENCLAVE, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s1.Seal([]byte("persisted"), nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s2.Unseal(blob, nil)
	if err != nil {
		t.Fatalf("restart should unseal: %v", err)
	}
	if string(back) != "persisted" {
		t.Errorf("got %q", back)
	}
}

func TestSealRoundTripProperty(t *testing.T) {
	p := enclave.NewPlatform(enclave.WithFuseSeed([]byte("m1")))
	e := buildEnclave(t, p, "proxy")
	s, err := New(p, e, enclave.PolicyMRENCLAVE, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(pt, aad []byte) bool {
		blob, err := s.Seal(pt, aad)
		if err != nil {
			return false
		}
		back, err := s.Unseal(blob, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(back, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
