package metrics

// PrecisionRecall computes the precision and recall of a retrieved result
// set against a reference set, per the paper's §5.4.2:
//
//	precision = |Ror ∩ Rxs| / |Rxs|
//	recall    = |Ror ∩ Rxs| / |Ror|
//
// where reference is Ror (results for the original query) and retrieved is
// Rxs (results returned by X-Search after filtering). Elements are compared
// by string identity (result URLs in practice). Empty sets yield 0 for the
// corresponding metric except the vacuous case where both are empty, which
// yields perfect scores.
func PrecisionRecall(reference, retrieved []string) (precision, recall float64) {
	if len(reference) == 0 && len(retrieved) == 0 {
		return 1, 1
	}
	ref := make(map[string]struct{}, len(reference))
	for _, r := range reference {
		ref[r] = struct{}{}
	}
	inter := 0
	seen := make(map[string]struct{}, len(retrieved))
	for _, r := range retrieved {
		if _, dup := seen[r]; dup {
			continue
		}
		seen[r] = struct{}{}
		if _, ok := ref[r]; ok {
			inter++
		}
	}
	if len(retrieved) > 0 {
		precision = float64(inter) / float64(len(seen))
	}
	if len(ref) > 0 {
		recall = float64(inter) / float64(len(ref))
	}
	return precision, recall
}
