// Package lib is a fixture: both calls of scale pass the factor 2.
package lib

// Scaled sums a and b, each scaled.
func Scaled(a, b int) int { return scale(a, 2) + scale(b, 2) }

func scale(x, factor int) int { return x * factor }
