// Package lib is a fixture: every call of total passes 1 first, but its one
// parameter is variadic, and one call spreads a slice into it.
package lib

// Totals sums 1, 1 and 2, and ns.
func Totals(ns []int) int { return total(1) + total(1, 2) + total(ns...) }

func total(xs ...int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
