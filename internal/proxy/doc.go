// Package proxy implements the X-Search node (§4): an enclave-hosted
// request handler that decrypts client queries, obfuscates them with k real
// past queries (core.Obfuscator), queries the search engine through the
// paper's ocall interface (sock_connect/send/recv/close), filters the
// merged results back down to the original query's results, and returns
// them over the attested secure channel. Its client edge carries sealed
// calls only (POST /handshake, POST /secure), and so does the enclave: it
// decodes no query but a sealed one, so the untrusted host never sees a
// query in the clear. ServeQuery, for the capacity experiments, is an
// internal/client session over InProcess; no route reaches it.
//
// # Request stage
//
// The trusted request stage is written once (stage.go) as a sequence of
// stage functions over 1..N entries; the configurations are parameter
// settings of it. Blocking — the paper's — is the engine stage run to
// completion inside the "request" ecall over the socket ocalls; async
// (Config.AsyncOcalls) parks the request there instead and finishes it
// in "resume"; batching (Config.BatchMax) sends N entries through in one
// "request-batch" crossing, and an unbatched request is a batch of one.
//
//	stage      function            blocking        async                     what the host can observe at the seam
//	open       open                "request"       "request[-batch]"         a sealed record in, its size
//	obfuscate  obfuscate           "request"       "request[-batch]"         one EPC charge + refund ≈ query length
//	probe      probe               "request"       "request[-batch]"         hit or miss (a hit replies at once)
//	engine     fetch (blocking)    socket ocalls,  parks: "tls_step" flight  the k+1 obfuscated query (ciphertext
//	           park (async)        TCS held        submitted, TCS released   under TLS), the upstream, timing
//	settle     settle              "request"       "resume" (winner only)    cache/index EPC charges (quantized)
//	reply      finishReply         "request"       "resume" (the leader's    a sealed record out, its size
//	                                               and every follower's)
//
// A request that probe answers (or any stage fails) replies in the
// crossing it arrived in, under every configuration.
//
// Parked requests live in the pending table (pipeline.go) under the id
// the untrusted runtime minted for them before the crossing, and two
// ecalls carry everything that happens to a request between park and
// reply: "resume" (1..N step completions, each routed to its flight by the
// token that leads it; a flight's terminal step brings breaker accounting,
// failover to the next upstream, the settle, and the final reply of the
// leader and of every coalesced follower — each sealed on its own channel,
// none under the table lock) and "abandon" (the caller has gone). A
// request has at most one fetch in flight at any time: one engine holds
// its k+1 query until that fetch ends, and only then may a failover send
// it to the next. The remaining
// ecalls are "init" and the sealed-state pair "snapshot"/"merge". The
// untrusted half (dispatch.go)
// admits requests, names them, batches crossings, drains completions into
// "resume" and hands outcomes to whoever waits under the id — an id nobody
// waits under is a caller that has gone: its final outcome is dropped, its
// Pending one abandoned. It moves opaque bytes and timing only.
//
// # Seam encodings
//
// A request crosses three seams on its way in — client edge, enclave
// boundary, engine — and each message on them has exactly one encoding
// (wire.go has the binary codecs, front.go the edge bodies,
// internal/core the sealed plaintext's):
//
//	message                              encoding   why
//	sealed plaintext {"query","count"}   JSON       the client contract: brokers (and bench/) seal their own;
//	  in, {"results","err"} out                     only the two ends of the attested channel read it. Both
//	                                                ends speak it through internal/core's hand-written codec
//	                                                (as does settle, on the one string an engine body is
//	                                                decoded into), never through reflection; the tests and
//	                                                bench/ keep encoding/json on the other side of it
//	secure call: HTTP POST /secure       binary     len(1) ‖ session id ‖ raw record up, the raw sealed record
//	  and the mux KindSecure stream                 back (application/octet-stream over HTTP) — the per-query
//	                                                path of every broker; ServeCall is both edges' one reader
//	HTTP POST /handshake and the mux     JSON       one handshake a session: the client's offer and nonce up,
//	  KindHandshake stream                          the enclave's offer, session id and verification report back
//	envelope ("request", entries of      binary     a handshake or a sealed query, under the runtime's id for
//	  "request-batch")                              it (any other type byte is refused at decode); byte
//	                                                fields alias the ecall argument
//	envelopeReply ("request"; nested in  binary     ONE encoding of a reply on the blocking, batched and
//	  the two below)                                async-resume paths; parked, it is the id alone. A final
//	                                                reply's Record is its last field and is sealed inside
//	                                                the frame: one buffer, no plaintext copy outside it
//	batchItemReply ("request-batch")     binary     an encoded envelopeReply, or the entry's error
//	resumeReply ("resume")               binary     verdict, id, done token, the leader's encoded envelopeReply
//	                                                and one (id, envelopeReply or error) per follower
//	batch framing (both batched ecalls)  binary     u32 count, u32 length per entry
//	socket ocalls (sock_connect host:port binary    the paper's sock_* interface. A recv reads at most
//	  bytes; send/recv/close fds, deadlines)        tlsStepReadMax (the one read cap of both engine
//	                                                stages) and replies with just the bytes that arrived
//	tlsStepArg ("tls_step" ocall)        binary     token first, then conn id, dial/read flags, deadline,
//	                                                host, the bytes to send (raw) and conns to close
//	tlsStepReply (its completion, an     binary     token first — "resume" routes on those 8 bytes and the
//	  entry of "resume")                            flight decodes the rest once — then eof/cancelled, the
//	                                                error, and the bytes read (raw, aliasing the frame until
//	                                                the flight's adapter copies them: the one trusted copy)
//	"abandon" argument                   binary     the request's id, eight little-endian bytes
//	tokenList ("abandon" reply)          binary     the fetch token the runtime is to cancel (none, or one)
//	snapshot/merge reply, sealed state   JSON       start-up, shutdown and drain paths, never per query
//	  blob
//
// The binary decoders follow decodeBatch's discipline: every length is
// checked against the bytes present before it sizes anything, trailing
// bytes are an error, and FuzzSeamCodec holds them to it. What is still
// JSON inside the package: the client contract, the compatibility front
// and handshake offers, and the sealed-state replies — nothing between a
// request's admission and its reply.
//
// # Sealed state
//
// Everything private that outlives an enclave — the history window and
// the answer index — leaves it as ONE blob sealed under stateAAD, and
// moves through ONE pair: "snapshot" seals it under a fresh 16-byte id,
// "merge" adds it to the local state. Start-up restore (StatePath) is a
// merge into the empty window, shutdown persists a snapshot, and a fleet
// drain moves one blob from the drained shard to its successor. A merge
// is all or nothing (a refused one changes nothing, the EPC meter
// included) and single-use: the enclave refuses an id it has merged.
// Limit: that memory dies with the enclave, so a host that rolls the
// StatePath file back to an older blob across a restart is not detected.
// On real SGX a monotonic counter sealed beside the blob closes it, as
// an attested enclave-to-enclave channel should carry the fleet handoff
// instead of the shared sealing root.
//
// # TLS transport
//
// An upstream with pinned roots (EngineSpec.RootsPEM) is spoken to over
// TLS terminated INSIDE the enclave: the handshake, certificate
// validation against the measured roots, and all record encrypt/decrypt
// run in trusted code (crypto/tls over an adapter), so the untrusted
// host observes exactly two things about an HTTPS fetch — ciphertext
// and timing. The obfuscated query, the engine's results, and the TLS
// session secrets never cross the boundary in the clear.
//
// Every fetch — pinned-root or plain — is ONE exchange (tlsasync.go):
// deadline, pool checkout, crypto/tls or the bare HTTP exchange over the
// step adapter, one stale-conn retry, boundary-checked check-in, over ONE
// per-upstream keep-alive pool (TLS state and resumption tickets included;
// one TTL and eviction policy, one set of Stats counters). What differs
// between the engine stages is the stepper that carries out each I/O round
// (dial + send + read + closes) of it:
//
//   - Blocking: ocallStepper runs the step in place as the paper's
//     close/sock_connect/send/recv ocalls, sock_check probing a pooled
//     conn before use, holding a TCS for the whole exchange.
//   - Async pipeline (Config.AsyncOcalls): the exchange is a flight, a
//     trusted coroutine that parks at each step while it crosses the
//     switchless rings as one async "tls_step" ocall. The request waits in
//     the pending table between steps — no TCS is held across network
//     waits — which is what batched submission and abandon build on. A
//     fresh TLS 1.3 exchange costs two ring round trips; a pooled one, and
//     a plain one, cost one.
//
// Config.FetchTimeout is an absolute deadline over the WHOLE fetch on
// both paths — TCP connect, TLS handshake, request, and response — so a
// hung or slow-loris engine can neither pin a TCS (blocking path) nor
// park a flight forever (async path). Handshake latency is recorded
// under the dedicated "handshake" stage of the closed tracing stage
// set; like every stage it leaves the enclave only as an aggregate
// fixed-bucket histogram.
package proxy
