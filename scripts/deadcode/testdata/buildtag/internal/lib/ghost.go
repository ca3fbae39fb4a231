//go:build ignore

package lib

// Ghost would be an orphan, and Used is declared twice, if the checker read
// this file.
func Ghost() int { return Used() }

// Used is declared in lib.go too.
func Used() int { return 0 }
