// Package lib is a fixture: Used has a non-test caller, Orphan has none.
package lib

// Used is called by the command.
func Used() int { return 1 }

// Orphan is called by the test beside it only.
func Orphan() int { return 2 }
