package textutil_test

import (
	"testing"

	"xsearch/internal/dataset"
	"xsearch/internal/searchengine"
	"xsearch/internal/textutil"
)

// BenchmarkTermSet measures the kernel on what the result filter feeds it:
// the titles and snippets of the engine's merged list for k+1 = 4 dataset
// queries x 20 corpus results, one call-scoped Termer per list.
func BenchmarkTermSet(b *testing.B) {
	gen, err := dataset.NewGenerator(dataset.DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	idx := searchengine.BuildIndex(searchengine.GenerateCorpus(
		searchengine.CorpusConfig{DocsPerTopic: 40, Seed: 1}))
	var texts []string
	for _, hit := range idx.SearchOR(searchengine.JoinOR(gen.GenerateQueries(4)), 20) {
		texts = append(texts, hit.Title, hit.Snippet)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tm textutil.Termer
		var set textutil.TermSet
		for _, s := range texts {
			set = tm.TermSet(set, s)
		}
	}
	b.ReportMetric(float64(len(texts)), "texts/op")
}
