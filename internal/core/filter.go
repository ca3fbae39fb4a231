package core

import (
	"strings"

	"xsearch/internal/textutil"
)

// Result is the minimal view of a search hit the filter needs. The proxy
// converts whatever the engine returned into this form.
type Result struct {
	URL     string
	Title   string
	Snippet string
}

// FilterResults implements Algorithm 2: for each result, score every
// sub-query (the original and the fakes) by the number of words it shares
// with the result's title plus its description — nbCommonWords(q, title(r))
// + nbCommonWords(q, desc(r)) — and keep the result iff the original query's
// score is the maximum. Ties in favour of the original are kept, exactly as
// the algorithm's "score[Qu] = max" condition. Every pair is counted in one
// call-scoped textutil.PairCounter, so the scoring allocates nothing per
// (sub-query x result) pair once the counter's buffers have grown.
func FilterResults(original string, fakes []string, results []Result) []Result {
	var pc textutil.PairCounter
	kept := make([]Result, 0, len(results))
	for _, r := range results {
		origScore := pc.Common(original, r.Title) + pc.Common(original, r.Snippet)
		isMax := true
		for _, q := range fakes {
			if pc.Common(q, r.Title)+pc.Common(q, r.Snippet) > origScore {
				isMax = false
				break
			}
		}
		if isMax && origScore > 0 {
			kept = append(kept, r)
		}
	}
	return kept
}

// StripRedirects rewrites result URLs to remove tracking redirections
// (§4.1: results "are tampered by the proxy to remove any URL redirection
// used for analytics"). It recognizes the common pattern of a redirect
// endpoint carrying the destination in a query parameter (u= or url=) and
// otherwise returns the URL unchanged.
func StripRedirects(url string) string {
	for _, marker := range []string{"/ck?", "/url?", "/aclk?", "/redirect?"} {
		idx := strings.Index(url, marker)
		if idx < 0 {
			continue
		}
		queryPart := url[idx+len(marker):]
		for _, param := range strings.Split(queryPart, "&") {
			if target, ok := strings.CutPrefix(param, "u="); ok {
				return decodePercent(target)
			}
			if target, ok := strings.CutPrefix(param, "url="); ok {
				return decodePercent(target)
			}
		}
	}
	return url
}

// decodePercent performs minimal percent-decoding sufficient for embedded
// http(s) URLs.
func decodePercent(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			hi, okHi := unhex(s[i+1])
			lo, okLo := unhex(s[i+2])
			if okHi && okLo {
				b.WriteByte(hi<<4 | lo)
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
