package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xsearch/internal/raceflag"
)

// The reference side of every check below is encoding/json over the
// contract's shapes.
type refReply struct {
	Results []Result `json:"results"`
	Err     string   `json:"err,omitempty"`
}

type refRequest struct {
	Query string `json:"query"`
	Count int    `json:"count"`
}

// nastyStrings is every class of string the appender escapes or the reader
// unescapes differently from a plain copy.
var nastyStrings = []string{
	"", "plain ascii", `quote " backslash \ slash /`, "tab\tnl\ncr\rbs\bff\f",
	"\x00\x01\x1f control", "del \x7f", "<script>&amp;</script>", "line\u2028para\u2029sep",
	"héllo wörld 日本語 😀", "\xff lone byte", "trunc \xe2\x82", "\xc0\xaf overlong",
	"\xed\xa0\x80 raw surrogate", "\ufffd real replacement", strings.Repeat("long ", 200),
}

func randomString(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return nastyStrings[rng.Intn(len(nastyStrings))]
	}
	alphabet := []string{"a", "Z", " ", `"`, `\`, "/", "<", ">", "&", "\n", "\x00", "\x1f", "\x7f",
		"é", "日", "😀", "\u2028", "\u2029", "\xff", "\xc3", "\xed\xa0\x80", "\ufffd", `\u0041`}
	var b strings.Builder
	for n := rng.Intn(24); n > 0; n-- {
		b.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

func randomResults(rng *rand.Rand) []Result {
	switch n := rng.Intn(8); n {
	case 0:
		return nil
	case 1:
		return []Result{}
	default:
		out := make([]Result, n-1)
		for i := range out {
			out[i] = Result{URL: randomString(rng), Title: randomString(rng), Snippet: randomString(rng)}
		}
		return out
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The appenders write json.Marshal's bytes, on a table and a seeded stream.
func TestAppendersMatchJSONMarshal(t *testing.T) {
	lists := [][]Result{nil, {}, {{}}}
	for _, s := range nastyStrings {
		lists = append(lists, []Result{{URL: s, Title: "t " + s, Snippet: s + " s"}, {Snippet: s}})
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 2000; i++ {
		lists = append(lists, randomResults(rng))
	}
	for i, list := range lists {
		if got, want := AppendResultsJSON(nil, list), mustMarshal(t, list); !bytes.Equal(got, want) {
			t.Fatalf("list %d:\n got  %s\n want %s", i, got, want)
		}
		errstr := ""
		if i%3 == 0 {
			errstr = randomString(rng)
		}
		if got, want := AppendSecureReply(nil, list, errstr), mustMarshal(t, refReply{list, errstr}); !bytes.Equal(got, want) {
			t.Fatalf("reply %d:\n got  %s\n want %s", i, got, want)
		}
		q, n := randomString(rng), rng.Intn(200)-50
		if got, want := AppendSecureRequest(nil, q, n), mustMarshal(t, refRequest{q, n}); !bytes.Equal(got, want) {
			t.Fatalf("request %d:\n got  %s\n want %s", i, got, want)
		}
	}
	// Appending keeps what dst already holds.
	if got := AppendResultsJSON([]byte("x"), []Result{{URL: "u"}}); string(got) != `x[{"URL":"u","Title":"","Snippet":""}]` {
		t.Fatalf("append onto a prefix: %s", got)
	}
}

// checkAgainstJSON runs in through all three readers and encoding/json. A
// reader may refuse what encoding/json takes only where mustAccept is
// false; it never takes what encoding/json refuses, and an answer both
// give is the same answer.
func checkAgainstJSON(t testing.TB, in []byte, mustAccept bool) {
	t.Helper()
	verdict := func(shape string, got, want any, err, refErr error) {
		t.Helper()
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("%s: accepted %q, which encoding/json refuses: %v", shape, in, refErr)
		case err != nil && refErr == nil && mustAccept:
			t.Fatalf("%s: refused %q, which encoding/json accepts: %v", shape, in, err)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%s: %q\n got  %#v\n want %#v", shape, in, got, want)
		}
	}

	var list []Result
	refErr := json.Unmarshal(in, &list)
	got, err := ParseResultsJSON(string(in), 0)
	verdict("list", got, list, err, refErr)
	if err == nil {
		if hinted, err := ParseResultsJSON(string(in), 3); err != nil || !reflect.DeepEqual(hinted, got) {
			t.Fatalf("list: a hint changed the answer for %q: %#v, %v", in, hinted, err)
		}
		if again := AppendResultsJSON(nil, got); !bytes.Equal(again, mustMarshal(t, got)) {
			t.Fatalf("list: re-encoding %#v: %s", got, again)
		}
	}

	var reply refReply
	refErr = json.Unmarshal(in, &reply)
	results, errstr, err := ParseSecureReply(in, 0)
	verdict("reply", refReply{results, errstr}, reply, err, refErr)

	var req refRequest
	refErr = json.Unmarshal(in, &req)
	query, count, err := ParseSecureRequest(in)
	verdict("request", refRequest{query, count}, req, err, refErr)
}

// agreed are texts encoding/json accepts in at least one of the three
// shapes; every reader must give its answer wherever it does.
var agreed = []string{
	`null`, `[]`, ` [ ] `, `[null]`, `[{}]`, `[{},null,{}]`, "\t[\r\n{ \"URL\" : \"u\" , \"Title\":\"t\",\"Snippet\":\"s\"}\n]\n",
	`[{"url":"u","title":"t","snippet":"s","score":0.25}]`, `[{"URL":"a","url":"b","Url":null}]`,
	`[{"URL":null,"Title":null,"Snippet":null}]`, `[{"snippet":"kelvin K","ſnippet":"long s"}]`,
	`[{"URL":"\u0041\u00e9\u65e5\ud83d\ude00 pair"}]`, `[{"URL":"\ud800 lone high","Title":"\udc00 lone low","Snippet":"\ud800\u0041 high then A"}]`,
	`[{"URL":"\ud800\ud800\udc00 high then pair"}]`, `[{"URL":"\/ \" \\ \b \f \n \r \t \u003c\u003E\u0026 \u2028"}]`,
	"[{\"URL\":\"raw \xff\xc3 bytes \xed\xa0\x80\",\"\xffkey\":1}]", `[{"URL":"del ` + "\x7f" + `"}]`,
	`[{"extra":{"a":[1,2.5e-3,-0,true,false,null,"s",{"b":[]}],"c":{}},"URL":"kept"}]`,
	`[{"n":-0.0e+10,"m":1E5,"k":0,"big":123456789012345678901234567890}]`,
	`{}`, `{"results":null}`, `{"results":[]}`, `{"results":[],"err":null}`, `{"RESULTS":[{"URL":"u"}],"Err":"e"}`,
	`{"err":"a","err":"b"}`, `{"results":[{"URL":"u"}],"err":"boom \u003c","junk":[[[]]]}`, `{"err":"only"}`,
	`{"query":"q","count":20}`, `{"count":20,"query":"q"}`, `{"query":"q"}`, `{"query":null,"count":null}`,
	`{"QUERY":"\u0071 \ud83d\ude00","Count":-0,"x":{"y":[null]}}`, `{"query":"a","query":"b","count":1,"count":2}`,
	`{"query":"` + strings.Repeat("long ", 500) + `","count":100}`,
}

// malformed are texts no reader may take in any shape.
var malformed = []string{
	``, ` `, `[`, `]`, `{`, `}`, `[,]`, `[{},]`, `[{}{}]`, `[{"URL":"u",}]`, `[{"URL"}]`, `[{"URL":}]`, `[{URL:"u"}]`, `[{'URL':'u'}]`,
	`[{"URL":"u"}] x`, `[] []`, `{} {}`, `{"err":"e"}}`, `nul`, `nullx`, `1`, `"s"`, `true`,
	`[{"x":01}]`, `[{"x":1.}]`, `[{"x":.5}]`, `[{"x":1e}]`, `[{"x":-}]`, `[{"x":+1}]`, `[{"x":tru}]`, `[{"x":nul}]`, `[{"x":falsey}]`, `[{"x":NaN}]`,
	`{"x":01}`, `{"x":[1,]}`, `{"x":{"y"}}`, `{"x":{1:2}}`, `{"x" 1}`, `{"x":1 "y":2}`, `{,"x":1}`,
	`[{"URL":"\x"}]`, `[{"URL":"\u12"}]`, `[{"URL":"\u12G4"}]`, `[{"URL":"\ud800\uZZZZ"}]`, `[{"URL":"\`, `[{"URL":"unterminated`,
	`{"err":"\x"}`, `{"query":"\u12G4"}`, `{"query":"unterminated`,
	"[{\"URL\":\"raw\nnewline\"}]", "[{\"URL\":\"nul\x00\"}]", "[{\"URL\":\"u\"}]\x00", "\xef\xbb\xbf[]", "[\x00]", "{\"query\":\"tab\t\"}",
}

// mistyped are well-formed texts one reader must refuse: a known key or an
// element of the wrong type, a count no int holds — and, on purpose, the
// repeated list that encoding/json would merge into the first.
var (
	mistypedLists = []string{`{}`, `[1]`, `["s"]`, `[[]]`, `[true]`, `[{"URL":1}]`, `[{"Title":{}}]`, `[{"Snippet":[]}]`, `[{"url":true}]`}
	mistypedReply = []string{`[]`, `{"results":{}}`, `{"results":[1]}`, `{"results":"x"}`, `{"err":1}`, `{"ERR":[]}`,
		`{"results":[{"URL":"a"}],"results":[{"Title":"merged by encoding/json"}]}`, `{"results":[],"Results":null}`}
	mistypedRequests = []string{`[]`, `{"query":1}`, `{"query":["q"]}`, `{"count":"20"}`, `{"count":1.0}`, `{"count":1e1}`,
		`{"count":9223372036854775808}`, `{"count":-9223372036854775809}`, `{"COUNT":true}`}
)

func TestReadersAgreeWithJSONUnmarshal(t *testing.T) {
	for _, in := range agreed {
		checkAgainstJSON(t, []byte(in), true)
	}
	refuses := func(shape, in string, err error) {
		t.Helper()
		checkAgainstJSON(t, []byte(in), false)
		if err == nil {
			t.Errorf("%s reader took %q", shape, in)
		}
	}
	for _, in := range malformed {
		_, errList := ParseResultsJSON(in, 0)
		_, _, errReply := ParseSecureReply([]byte(in), 0)
		_, _, errReq := ParseSecureRequest([]byte(in))
		refuses("list", in, errList)
		refuses("reply", in, errReply)
		refuses("request", in, errReq)
	}
	for _, in := range mistypedLists {
		_, err := ParseResultsJSON(in, 0)
		refuses("list", in, err)
	}
	for _, in := range mistypedReply {
		_, _, err := ParseSecureReply([]byte(in), 0)
		refuses("reply", in, err)
	}
	for _, in := range mistypedRequests {
		_, _, err := ParseSecureRequest([]byte(in))
		refuses("request", in, err)
	}
	// Everything the appenders and json.Marshal emit, compact and indented.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1000; i++ {
		list, errstr := randomResults(rng), randomString(rng)
		checkAgainstJSON(t, AppendResultsJSON(nil, list), true)
		checkAgainstJSON(t, AppendSecureReply(nil, list, errstr), true)
		checkAgainstJSON(t, AppendSecureRequest(nil, errstr, i), true)
		indented, err := json.MarshalIndent(refReply{list, errstr}, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstJSON(t, indented, true)
		var plain bytes.Buffer
		enc := json.NewEncoder(&plain)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(list); err != nil {
			t.Fatal(err)
		}
		checkAgainstJSON(t, plain.Bytes(), true)
	}
}

// No prefix of a document is a document, and a cut anywhere — inside an
// escape, a surrogate pair, a multi-byte rune, a literal — is a refusal.
func TestReadersRefuseEveryTruncation(t *testing.T) {
	list := []Result{{URL: "http://x/?a=1&b=<2>", Title: "tïtle 😀 \u2028", Snippet: "tab\t\"quoted\" \xff"}, {}}
	docs := [][]byte{
		AppendSecureReply(nil, list, "err \\ text"),
		AppendSecureRequest(nil, "quéry \n 😀", 20),
		[]byte(`[{"URL":"\ud83d\ude00","x":[1.5e3,true,false,null,{"y":"z"}],"Title":"t"},null]`),
	}
	for _, doc := range docs {
		checkAgainstJSON(t, doc, true)
		for cut := 0; cut < len(doc); cut++ {
			in := doc[:cut:cut]
			checkAgainstJSON(t, in, false)
			_, errList := ParseResultsJSON(string(in), 0)
			_, _, errReply := ParseSecureReply(in, 0)
			_, _, errReq := ParseSecureRequest(in)
			if errList == nil || errReply == nil || errReq == nil {
				t.Fatalf("truncation %q accepted (list %v, reply %v, request %v)", in, errList, errReply, errReq)
			}
		}
	}
}

func TestResultsJSONCaps(t *testing.T) {
	list := func(n int) string {
		return "[" + strings.Repeat("{},", n-1) + "{}]"
	}
	if got, err := ParseResultsJSON(list(maxJSONResults), 0); err != nil || len(got) != maxJSONResults {
		t.Fatalf("a list at the cap: %d results, %v", len(got), err)
	}
	if _, err := ParseResultsJSON(list(maxJSONResults+1), 0); err == nil {
		t.Fatal("a list past the cap was accepted")
	}
	// A hostile hint cannot size the list past what the bytes could hold.
	if got, err := ParseResultsJSON(`[{}]`, 1<<40); err != nil || cap(got) > 2 {
		t.Fatalf("hint 1<<40 on a one-result body: cap %d, %v", cap(got), err)
	}

	nested := func(levels int) string {
		return `[{"junk":` + strings.Repeat("[", levels) + strings.Repeat("]", levels) + `,"URL":"u"}]`
	}
	// The junk value sits at depth 2: list, result, value.
	if got, err := ParseResultsJSON(nested(maxJSONDepth-2), 0); err != nil || got[0].URL != "u" {
		t.Fatalf("junk nested to the bound: %v, %v", got, err)
	}
	for _, levels := range []int{maxJSONDepth - 1, 1000, 100000} {
		if _, err := ParseResultsJSON(nested(levels), 0); err == nil {
			t.Fatalf("junk nested %d deep was accepted", levels)
		}
	}
}

// The shape ISSUE 20 sized: a decoded reply is one string copy and one
// list, however many escape-free fields it holds, and an empty list (an
// EchoMode reply) is the copy alone.
func TestParseSecureReplyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	list := corpusCases(t, 1, 0, 20)[0].results
	if len(list) != 20 {
		t.Fatalf("corpus list has %d results, want 20", len(list))
	}
	for _, c := range []struct {
		name  string
		reply []byte
		hint  int
		want  float64
	}{
		{"20 results, hinted", AppendSecureReply(nil, list, ""), 20, 2},
		{"20 results, sized from the bytes", AppendSecureReply(nil, list, ""), 0, 2},
		{"empty list", AppendSecureReply(nil, []Result{}, ""), 20, 1},
	} {
		got := testing.AllocsPerRun(100, func() {
			if _, _, err := ParseSecureReply(c.reply, c.hint); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f", c.name, got, c.want)
		}
	}
	if got := testing.AllocsPerRun(100, func() { AppendSecureReply(nil, list, "") }); got != 1 {
		t.Errorf("encoding a 20-result reply: %.0f allocations, want 1", got)
	}
}

// The history keeps a request's query: in the contract's own framing it
// rides on the one copy of the plaintext, behind anything bulkier it is a
// string of its own, so the window never pins bytes it did not charge.
func TestParseSecureRequestPinsOnlyItsFraming(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	for _, c := range []struct {
		name      string
		plaintext string
		want      float64
	}{
		{"the broker's framing", string(AppendSecureRequest(nil, "chicken recipe dinner", 20)), 1},
		{"sorted keys", `{"count":20,"query":"chicken recipe dinner"}`, 1},
		{"padded", `{"pad":"` + strings.Repeat("x", 4096) + `","query":"chicken recipe dinner"}`, 2},
	} {
		in := []byte(c.plaintext)
		got := testing.AllocsPerRun(100, func() {
			if q, _, err := ParseSecureRequest(in); err != nil || q != "chicken recipe dinner" {
				t.Fatalf("%s: %q, %v", c.name, q, err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f", c.name, got, c.want)
		}
	}
}

// FuzzResultsJSON: on any bytes the readers neither panic nor over-read,
// never take what encoding/json refuses, and agree with it whenever both
// accept.
func FuzzResultsJSON(f *testing.F) {
	for _, in := range agreed {
		f.Add([]byte(in))
	}
	for _, table := range [][]string{malformed, mistypedLists, mistypedReply, mistypedRequests} {
		for _, in := range table {
			f.Add([]byte(in))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkAgainstJSON(t, in, false)
	})
}

var codecSink int

// BenchmarkSecureReplyCodec is the sealed plaintext's round trip on a
// corpus 20-result list — the enclave's encode plus the broker's decode —
// beside the same round trip through encoding/json, which it replaced.
func BenchmarkSecureReplyCodec(b *testing.B) {
	cases := corpusCases(b, 16, 0, 20)
	b.Run("core", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plaintext := AppendSecureReply(nil, cases[i%len(cases)].results, "")
			results, _, err := ParseSecureReply(plaintext, 20)
			if err != nil {
				b.Fatal(err)
			}
			codecSink += len(results)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var reply refReply
			if err := json.Unmarshal(mustMarshal(b, refReply{Results: cases[i%len(cases)].results}), &reply); err != nil {
				b.Fatal(err)
			}
			codecSink += len(reply.Results)
		}
	})
}
