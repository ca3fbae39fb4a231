package textutil

// stopwords is a conventional English stopword list (the classic van
// Rijsbergen / SMART subset most retrieval systems ship). Queries in the
// AOL log are short, so stopword stripping materially changes similarity
// scores; the list is kept deliberately standard so results are comparable
// with other implementations.
var stopwords = map[string]struct{}{}

func init() {
	for _, w := range stopwordList {
		stopwords[w] = struct{}{}
	}
}

var stopwordList = []string{
	"a", "about", "above", "after", "again", "against", "all", "am", "an",
	"and", "any", "are", "aren", "as", "at", "be", "because", "been",
	"before", "being", "below", "between", "both", "but", "by", "can",
	"cannot", "could", "couldn", "did", "didn", "do", "does", "doesn",
	"doing", "don", "down", "during", "each", "few", "for", "from",
	"further", "had", "hadn", "has", "hasn", "have", "haven", "having",
	"he", "her", "here", "hers", "herself", "him", "himself", "his", "how",
	"i", "if", "in", "into", "is", "isn", "it", "its", "itself", "just",
	"ll", "me", "more", "most", "mustn", "my", "myself", "no", "nor",
	"not", "now", "of", "off", "on", "once", "only", "or", "other",
	"ought", "our", "ours", "ourselves", "out", "over", "own", "re",
	"same", "shan", "she", "should", "shouldn", "so", "some", "such",
	"than", "that", "the", "their", "theirs", "them", "themselves",
	"then", "there", "these", "they", "this", "those", "through", "to",
	"too", "under", "until", "up", "ve", "very", "was", "wasn", "we",
	"were", "weren", "what", "when", "where", "which", "while", "who",
	"whom", "why", "will", "with", "won", "would", "wouldn", "you",
	"your", "yours", "yourself", "yourselves",
}

// IsStopword reports whether the (already lowercased) token w is an English
// stopword.
func IsStopword(w string) bool {
	_, ok := stopwords[w]
	return ok
}
