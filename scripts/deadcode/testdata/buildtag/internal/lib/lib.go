// Package lib is a fixture: ghost.go is excluded by its build tag.
package lib

// Used is called by the command.
func Used() int { return 1 }
