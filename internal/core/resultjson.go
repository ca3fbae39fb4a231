package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The client contract is JSON — a sealed {"query","count"} up, a sealed
// {"results","err"} back, a bare result list on /search and from the
// engine — and this file is its one codec. Nothing here reflects: the
// appenders write exactly json.Marshal's bytes (a client decoding with
// encoding/json, as the repo benchmark does, sees no difference), and the
// reader is one strict pass over one string (an engine body's own, else a
// copy), so a field without escapes is a substring, not an allocation.

const (
	maxJSONResults = 1 << 14 // list cap: 8 MiB of "{}," must not size a 130 MB slice
	maxJSONDepth   = 32      // nesting skipped under an unknown key, and so the reader's recursion
	// resultJSONBytes sizes a list decoded without a caller's hint: a
	// result with a snippet rarely undercuts it (corpus ones run 190-320).
	resultJSONBytes = 192
)

// AppendResultsJSON appends json.Marshal(results) to dst: nil is null, a
// result is {"URL":…,"Title":…,"Snippet":…}.
func AppendResultsJSON(dst []byte, results []Result) []byte {
	if results == nil {
		return append(dst, "null"...)
	}
	dst = append(slices.Grow(dst, resultsJSONSize(results)), '[')
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(append(dst, `{"URL":`...), results[i].URL)
		dst = appendJSONString(append(dst, `,"Title":`...), results[i].Title)
		dst = appendJSONString(append(dst, `,"Snippet":`...), results[i].Snippet)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// resultsJSONSize is the encoded size when nothing needs an escape, and
// the newline an HTTP writer ends it with: what one allocation should hold.
func resultsJSONSize(results []Result) int {
	n := len("[]\n")
	for i := range results {
		n += len(`{"URL":"","Title":"","Snippet":""},`) + len(results[i].URL) + len(results[i].Title) + len(results[i].Snippet)
	}
	return n
}

// AppendSecureRequest appends the plaintext a client seals into a query
// record: {"query":…,"count":…}.
func AppendSecureRequest(dst []byte, query string, count int) []byte {
	dst = slices.Grow(dst, len(`{"query":"","count":}`)+len(query)+20)
	dst = appendJSONString(append(dst, `{"query":`...), query)
	return append(strconv.AppendInt(append(dst, `,"count":`...), int64(count), 10), '}')
}

// AppendSecureReply appends the plaintext the enclave seals back:
// {"results":…}, with "err" when errstr is set.
func AppendSecureReply(dst []byte, results []Result, errstr string) []byte {
	dst = slices.Grow(dst, SecureReplySize(results, errstr))
	dst = AppendResultsJSON(append(dst, `{"results":`...), results)
	if errstr != "" {
		dst = appendJSONString(append(dst, `,"err":`...), errstr)
	}
	return append(dst, '}')
}

// SecureReplySize is AppendSecureReply's length when nothing needs an
// escape: the room a caller sizing one buffer for the reply leaves it.
func SecureReplySize(results []Result, errstr string) int {
	return len(`{"results":,"err":""}`) + resultsJSONSize(results) + len(errstr)
}

// jsonClass says, per byte inside a string, whether the reader (readPlain)
// and the appender (writePlain) pass it through untouched: printable ASCII
// but for quote and backslash, and on the way out <, > and &.
const (
	readPlain = 1 << iota
	writePlain
)

var jsonClass = func() (class [256]uint8) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		class[c] = readPlain | writePlain
	}
	class['"'], class['\\'] = 0, 0
	class['<'], class['>'], class['&'] = readPlain, readPlain, readPlain
	return class
}()

// The short escapes, byte and letter: what the appender writes for the
// first seven, and the reader undoes for all eight.
const escaped, escapeLetters = "\"\\\b\f\n\r\t/", `"\bfnrt/`

// appendJSONString quotes s as encoding/json does by default: the short
// escapes, \u00XX for other control bytes and <, > and &, \u2028 and
// \u2029, and \ufffd for each byte of invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonClass[c]&writePlain != 0 {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if c >= utf8.RuneSelf && (r != utf8.RuneError || size > 1) && r != '\u2028' && r != '\u2029' {
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		switch e := strings.IndexByte(escaped[:7], c); {
		case c >= utf8.RuneSelf:
			dst = append(dst, '\\', 'u', hex[r>>12], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
		case e >= 0:
			dst = append(dst, '\\', escapeLetters[e])
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// ParseResultsJSON decodes a bare result list — AppendResultsJSON's, or an
// engine's [{"url","title","snippet","score"},…] — as json.Unmarshal into
// []Result would, strictly: null is a nil list, [] an empty one, keys match
// in any case, unknown keys are skipped, and what encoding/json refuses is
// refused. hint, when positive, is the length the caller expects. The
// results alias body: the one string the enclave decodes an engine body into.
func ParseResultsJSON(body string, hint int) ([]Result, error) {
	r := jsonReader{s: body}
	results := r.results(hint)
	return results, r.end()
}

// ParseSecureReply reverses AppendSecureReply the same way.
func ParseSecureReply(plaintext []byte, hint int) (results []Result, errstr string, err error) {
	r := jsonReader{s: string(plaintext)}
	seen := false
	for first := true; r.member(first); first = false {
		switch key := r.key(); {
		case keyIs(key, "results"):
			// encoding/json merges a repeated list into the first, element
			// by element; no speaker of the contract repeats it.
			if seen {
				r.fail("repeated results")
			}
			seen, results = true, r.results(hint)
		case keyIs(key, "err"):
			r.strInto(&errstr)
		default:
			r.skip(1)
		}
	}
	return results, errstr, r.end()
}

// ParseSecureRequest reverses AppendSecureRequest. The history keeps the
// query and charges QueryCost for it, so the query may ride on the one
// copy of the plaintext only while that copy is the query in the
// contract's own framing (which perQueryOverhead's slack covers); behind
// anything bulkier — padding, junk keys — it is cloned, or the rest would
// sit in EPC uncharged for as long as the window holds the query.
func ParseSecureRequest(plaintext []byte) (query string, count int, err error) {
	r := jsonReader{s: string(plaintext)}
	for first := true; r.member(first); first = false {
		switch key := r.key(); {
		case keyIs(key, "query"):
			r.strInto(&query)
		case keyIs(key, "count"):
			// A Go int field takes integer literals only (a null is nothing).
			if at := r.pos; !r.null() {
				if count, err = strconv.Atoi(r.number()); err != nil {
					r.pos = at
					r.fail("not an integer")
				}
			}
		default:
			r.skip(1)
		}
	}
	if len(r.s)-len(query) > perQueryOverhead-16 {
		query = strings.Clone(query)
	}
	return query, count, r.end()
}

// keyIs matches an object key the way encoding/json matches a field name
// (ASCII here): exactly, or under Unicode case folding — which is only
// worth trying when the first bytes could fold together.
func keyIs(key, name string) bool {
	return key == name || len(key) >= len(name) &&
		(key[0]|0x20 == name[0]|0x20 || key[0] >= utf8.RuneSelf) && strings.EqualFold(key, name)
}

// jsonReader is a cursor over one JSON text. The first failure sticks and
// moves the cursor to the end, so every loop over it terminates and
// callers check once, in end.
type jsonReader struct {
	s   string
	pos int
	err error
}

func (r *jsonReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("core: bad JSON at byte %d: %s", r.pos, what)
	}
	r.pos = len(r.s)
}

// end reports the sticky failure, or bytes after the value.
func (r *jsonReader) end() error {
	if r.peek() != 0 {
		r.fail("trailing bytes")
	}
	return r.err
}

// peek skips whitespace and returns the byte at the cursor, 0 at the end
// (a NUL in the text is a failure, so 0 means nothing else).
func (r *jsonReader) peek() byte {
	for r.pos < len(r.s) {
		switch c := r.s[r.pos]; c {
		case ' ', '\t', '\r', '\n':
			r.pos++
		case 0:
			r.fail("NUL byte")
		default:
			return c
		}
	}
	return 0
}

// expect consumes the punctuation byte c, word the literal w.
func (r *jsonReader) expect(c byte) {
	if r.peek() != c {
		r.fail("expected " + string(rune(c)))
		return
	}
	r.pos++
}

func (r *jsonReader) word(w string) {
	if !strings.HasPrefix(r.s[r.pos:], w) {
		r.fail("expected " + w)
		return
	}
	r.pos += len(w)
}

// more steps through the members of an array or object whose closer is
// end: it consumes the closer and reports false, or the comma before every
// member but the first and reports true.
func (r *jsonReader) more(first bool, end byte) bool {
	if r.peek() == end {
		r.pos++
		return false
	}
	if !first {
		r.expect(',')
	}
	return r.err == nil
}

// member is more for an object the caller fills in: the first call
// consumes the opening brace, or a null in the object's place, which has
// no members (encoding/json leaves the target as it is).
func (r *jsonReader) member(first bool) bool {
	if first {
		if r.null() {
			return false
		}
		r.expect('{')
	}
	return r.more(first, '}')
}

// key reads an object member's name and the colon after it.
func (r *jsonReader) key() string {
	k := r.str()
	r.expect(':')
	return k
}

// null consumes a null if one is next.
func (r *jsonReader) null() bool {
	if r.peek() != 'n' {
		return false
	}
	r.word("null")
	return r.err == nil
}

// strInto reads a string into dst; a null leaves dst as it is.
func (r *jsonReader) strInto(dst *string) {
	if !r.null() {
		*dst = r.str()
	}
}

// str reads a string: a substring of the input up to the first escape or
// byte of invalid UTF-8, built apart from there on. buf is nil until then.
func (r *jsonReader) str() string {
	r.expect('"')
	s, from := r.s, r.pos
	var buf []byte
	for i := from; r.err == nil; {
		for i < len(s) && jsonClass[s[i]]&readPlain != 0 {
			i++
		}
		if i == len(s) {
			break
		}
		c := s[i]
		if c == '"' {
			if r.pos = i + 1; buf == nil {
				return s[from:i]
			}
			return string(append(buf, s[from:i]...))
		}
		if rn, size := utf8.DecodeRuneInString(s[i:]); c >= utf8.RuneSelf && (rn != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		if buf == nil {
			buf = make([]byte, 0, i-from+64)
		}
		buf = append(buf, s[from:i]...)
		r.pos = i
		switch e := strings.IndexByte(escapeLetters, at(s, i+1)); {
		case c >= utf8.RuneSelf:
			// encoding/json reads a byte of invalid UTF-8 as U+FFFD.
			buf, i = utf8.AppendRune(buf, utf8.RuneError), i+1
		case c < ' ':
			r.fail("control byte in string")
		case at(s, i+1) == 'u':
			rn, ok := hex4(s, i+2)
			if i += 6; !ok {
				r.fail("bad \\u escape")
			} else if utf16.IsSurrogate(rn) {
				// A valid pair is one rune; a lone half is U+FFFD, and
				// what follows it is read on its own.
				pair := utf8.RuneError
				if low, ok := hex4(s, i+2); ok && strings.HasPrefix(s[i:], `\u`) {
					pair = utf16.DecodeRune(rn, low)
				}
				if rn = pair; rn != utf8.RuneError {
					i += 6
				}
			}
			buf = utf8.AppendRune(buf, rn)
		case e >= 0:
			buf, i = append(buf, escaped[e]), i+2
		default:
			r.fail("bad escape")
		}
		from = i
	}
	r.fail("unterminated string")
	return ""
}

// at is s[i], 0 past the end.
func at(s string, i int) byte {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// hex4 reads the four hex digits at s[i:].
func hex4(s string, i int) (rune, bool) {
	if i+4 > len(s) {
		return 0, false
	}
	n, err := strconv.ParseUint(s[i:i+4], 16, 16)
	return rune(n), err == nil
}

// number consumes one number of the JSON grammar and returns its text.
func (r *jsonReader) number() string {
	r.peek()
	s, i := r.s, r.pos
	digits := func() bool { // one or more
		from := i
		for i < len(s) && s[i]-'0' <= 9 {
			i++
		}
		return i > from
	}
	if at(s, i) == '-' {
		i++
	}
	ok := at(s, i) == '0'
	if ok {
		i++
	} else {
		ok = digits()
	}
	if ok && at(s, i) == '.' {
		i++
		ok = digits()
	}
	if ok && at(s, i)|0x20 == 'e' {
		if i++; at(s, i) == '+' || at(s, i) == '-' {
			i++
		}
		ok = digits()
	}
	if !ok {
		r.fail("bad number")
		return ""
	}
	lit := s[r.pos:i]
	r.pos = i
	return lit
}

// skip consumes one value of any type, nested no deeper than maxJSONDepth.
func (r *jsonReader) skip(depth int) {
	switch c := r.peek(); c {
	case '"':
		r.str()
	case '{', '[':
		if depth >= maxJSONDepth {
			r.fail("nested too deep")
			return
		}
		r.pos++
		for first := true; r.more(first, c+2); first = false { // '['+2 is ']', '{'+2 is '}'
			if c == '{' {
				r.key()
			}
			r.skip(depth + 1)
		}
	case 't':
		r.word("true")
	case 'f':
		r.word("false")
	case 'n':
		r.word("null")
	default:
		r.number()
	}
}

// results reads a result list. An empty list allocates nothing, so an
// EchoMode reply costs what it weighs; a non-empty one is sized once, from
// the hint or the bytes left, and grows only past that.
func (r *jsonReader) results(hint int) []Result {
	if r.null() {
		return nil
	}
	r.expect('[')
	out := []Result{}
	for first := true; r.more(first, ']'); first = false {
		if len(out) == maxJSONResults {
			r.fail("too many results")
			break
		}
		if left := len(r.s) - r.pos; first {
			if hint <= 0 {
				hint = left/resultJSONBytes + 1
			}
			out = make([]Result, 0, min(hint, left/len(`{},`)+1))
		}
		out = append(out, Result{})
		res := &out[len(out)-1]
		for first := true; r.member(first); first = false {
			switch key := r.key(); {
			case keyIs(key, "URL"):
				r.strInto(&res.URL)
			case keyIs(key, "Title"):
				r.strInto(&res.Title)
			case keyIs(key, "Snippet"):
				r.strInto(&res.Snippet)
			default:
				r.skip(2)
			}
		}
	}
	return out
}
