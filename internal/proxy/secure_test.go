package proxy

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"xsearch/internal/attestation"
	"xsearch/internal/core"
	"xsearch/internal/enclave"
	"xsearch/internal/securechannel"
)

// secureRequest and secureResponse are the sealed plaintext as
// encoding/json speaks it. The tests seal and read with these, so the
// enclave's hand-written codec (internal/core) always meets a second
// implementation of the contract.
type secureRequest struct {
	Query string `json:"query"`
	Count int    `json:"count,omitempty"`
}

type secureResponse struct {
	Results []core.Result `json:"results"`
	Err     string        `json:"err,omitempty"`
}

// postSecure POSTs one secure body — session and sealed record, raw — to
// the /secure route at base and returns the status and the reply body (the
// raw sealed record on a 200).
func postSecure(t *testing.T, base, session string, record []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/secure", "application/octet-stream", bytes.NewReader(AppendSecureBody(nil, session, record)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		// What lets a broker read the reply once, into one buffer.
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" || resp.ContentLength != int64(len(reply)) {
			t.Errorf("secure reply: Content-Type %q, Content-Length %d for %d bytes", ct, resp.ContentLength, len(reply))
		}
	}
	return resp.StatusCode, reply
}

// secureSession drives the proxy's handshake endpoint directly (what the
// broker does, but in-package so the handler paths are covered here).
type secureSession struct {
	channel *securechannel.Channel
	session string
}

func openSecureSession(t *testing.T, p *Proxy) *secureSession {
	t.Helper()
	hs, err := securechannel.NewHandshake(securechannel.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	offerJSON, err := hs.Offer().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"offer": json.RawMessage(offerJSON),
		"nonce": nonce,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.URL()+"/handshake", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handshake status %d", resp.StatusCode)
	}
	var hr HandshakeResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	serverOffer, err := securechannel.UnmarshalOffer(hr.Offer)
	if err != nil {
		t.Fatal(err)
	}
	// Verify the attestation binding like a real client.
	var vr attestation.VerificationReport
	if err := json.Unmarshal(hr.VerificationReport, &vr); err != nil {
		t.Fatal(err)
	}
	verifier := &attestation.Verifier{
		ServiceKey: p.AttestationService().PublicKey(),
		Policy:     attestation.Policy{AcceptedMeasurements: []enclave.Measurement{p.Measurement()}},
	}
	expect := attestation.BindKey(serverOffer.PubKey)
	if _, err := verifier.Verify(&vr, nonce, &expect); err != nil {
		t.Fatalf("attestation: %v", err)
	}
	channel, err := hs.Complete(serverOffer)
	if err != nil {
		t.Fatal(err)
	}
	return &secureSession{channel: channel, session: hr.Session}
}

func (s *secureSession) search(t *testing.T, p *Proxy, query string) ([]byte, int) {
	t.Helper()
	pt, err := json.Marshal(map[string]any{"query": query, "count": 10})
	if err != nil {
		t.Fatal(err)
	}
	record, err := s.channel.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}
	status, reply := postSecure(t, p.URL(), s.session, record)
	if status != http.StatusOK {
		return nil, status
	}
	respPT, err := s.channel.Open(reply)
	if err != nil {
		t.Fatal(err)
	}
	return respPT, http.StatusOK
}

func TestSecureFlowInPackage(t *testing.T) {
	st := newTestStack(t, nil)
	sess := openSecureSession(t, st.proxy)
	pt, status := sess.search(t, st.proxy, "chicken recipe")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(pt, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) == 0 {
		t.Error("no results over secure channel")
	}
	if st.proxy.Stats().Handshakes != 1 {
		t.Errorf("handshakes = %d", st.proxy.Stats().Handshakes)
	}
}

func TestSecureSessionEviction(t *testing.T) {
	st := newTestStack(t, func(c *Config) { c.MaxSessions = 2 })
	s1 := openSecureSession(t, st.proxy)
	s2 := openSecureSession(t, st.proxy)
	s3 := openSecureSession(t, st.proxy) // evicts s1 (FIFO)

	if _, status := s1.search(t, st.proxy, "q"); status == http.StatusOK {
		t.Error("evicted session still served")
	}
	if _, status := s2.search(t, st.proxy, "chicken recipe"); status != http.StatusOK {
		t.Errorf("live session rejected: %d", status)
	}
	if _, status := s3.search(t, st.proxy, "chicken recipe"); status != http.StatusOK {
		t.Errorf("newest session rejected: %d", status)
	}
}

func TestSecureReplayRejected(t *testing.T) {
	st := newTestStack(t, nil)
	sess := openSecureSession(t, st.proxy)
	pt, err := json.Marshal(map[string]any{"query": "chicken recipe"})
	if err != nil {
		t.Fatal(err)
	}
	record, err := sess.channel.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}
	post := func() int {
		status, _ := postSecure(t, st.proxy.URL(), sess.session, record)
		return status
	}
	if status := post(); status != http.StatusOK {
		t.Fatalf("first send status %d", status)
	}
	if status := post(); status == http.StatusOK {
		t.Error("replayed record accepted")
	}
}

func TestServeQueryDirect(t *testing.T) {
	st := newTestStack(t, nil)
	results, err := st.proxy.ServeQuery(context.Background(), "chicken recipe dinner")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Error("no results via ServeQuery")
	}
	if _, err := st.proxy.ServeQuery(context.Background(), "  "); err == nil {
		t.Error("blank query accepted")
	}
}

func TestHandshakeBadBody(t *testing.T) {
	st := newTestStack(t, nil)
	resp, err := http.Post(st.proxy.URL()+"/handshake", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d", resp.StatusCode)
	}
	// GET not allowed.
	resp2, err := http.Get(st.proxy.URL() + "/handshake")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d", resp2.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	st := newTestStack(t, nil)
	resp, err := http.Get(st.proxy.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}
