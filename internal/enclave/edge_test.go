package enclave

import (
	"bytes"
	"context"
	"testing"
	"unsafe"

	"xsearch/internal/raceflag"
)

// edgeEnclave builds an enclave whose "call" ecall makes one synchronous
// ocall, through do, to the untrusted handler h.
func edgeEnclave(t *testing.T, do func(Env) error, h OCallHandler) *Enclave {
	t.Helper()
	b := NewPlatform().NewBuilder(Config{})
	if err := b.RegisterECall("call", func(env Env, _ []byte) ([]byte, error) {
		return nil, do(env)
	}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Destroy)
	if err := e.RegisterOCall("net", h); err != nil {
		t.Fatal(err)
	}
	return e
}

// overlaps reports whether two slices share any of their backing arrays'
// bytes, up to capacity.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b)) && b0 < a0+uintptr(cap(a))
}

// TestOCallEdgeCopiesBothWays: OCall is the edge SGX generates. The
// handler is handed untrusted copies, never the enclave's argument or the
// buffer the enclave lent, so a handler that keeps what it was given and
// writes over it after returning reaches neither.
func TestOCallEdgeCopiesBothWays(t *testing.T) {
	arg := []byte("sealed query bytes")
	lent := append(make([]byte, 0, 64), "head:"...)
	var got []byte
	var keptArg, keptScratch []byte
	e := edgeEnclave(t, func(env Env) (err error) {
		got, err = env.OCall("net", arg, lent)
		return err
	}, func(a, scratch []byte) ([]byte, error) {
		keptArg, keptScratch = a, scratch
		return append(append(scratch[:0], "reply to "...), a...), nil
	})
	if _, err := e.ECall(context.Background(), "call", nil); err != nil {
		t.Fatal(err)
	}
	if want := "head:reply to sealed query bytes"; string(got) != want {
		t.Fatalf("OCall returned %q, want %q", got, want)
	}
	if &got[0] != &lent[0] {
		t.Error("a result that fits the lent room was not written into the lent buffer")
	}
	if len(keptScratch) != cap(lent)-len(lent) {
		t.Errorf("scratch of %d bytes, want the lent room, %d", len(keptScratch), cap(lent)-len(lent))
	}
	for _, kept := range [][]byte{keptArg, keptScratch} {
		for _, enclave := range [][]byte{arg, lent} {
			if overlaps(kept, enclave) {
				t.Errorf("the handler was handed a slice of enclave memory")
			}
		}
	}

	argWas, gotWas := bytes.Clone(arg), bytes.Clone(got)
	for _, kept := range [][]byte{keptArg, keptScratch} {
		for i := range kept[:cap(kept)] {
			kept[:cap(kept)][i] = 0xff
		}
	}
	if !bytes.Equal(arg, argWas) {
		t.Errorf("the enclave's argument reads %q after the handler wrote over its copy", arg)
	}
	if !bytes.Equal(got, gotWas) {
		t.Errorf("the lent buffer reads %q after the handler wrote over its scratch", got)
	}
}

// TestOCallWithLentBufferAllocatesNothing: in steady state a synchronous
// ocall whose result fits the lent buffer costs no allocation — not the
// argument's copy, not the handler's scratch, not the result.
func TestOCallWithLentBufferAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	arg := bytes.Repeat([]byte{'a'}, 512)
	lent := make([]byte, 0, 4096)
	e := edgeEnclave(t, func(env Env) error {
		res, err := env.OCall("net", arg, lent)
		if err == nil && len(res) != len(arg) {
			t.Errorf("OCall returned %d bytes, want %d", len(res), len(arg))
		}
		return err
	}, func(a, scratch []byte) ([]byte, error) {
		return append(scratch[:0], a...), nil
	})
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() { _, _ = e.ECall(ctx, "call", nil) }); n != 0 {
		t.Errorf("a synchronous ocall with a lent buffer: %v allocs, want 0", n)
	}
}
