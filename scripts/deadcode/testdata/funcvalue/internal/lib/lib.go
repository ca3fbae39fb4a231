// Package lib is a fixture: add's one direct call passes constants, but add
// is also taken as a value, so other calls may pass anything.
package lib

// Apply calls add directly and through a value.
func Apply() int {
	f := add
	return add(1, 1) + f(2, 3)
}

func add(x, by int) int { return x + by }
