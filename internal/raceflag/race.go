//go:build race

package raceflag

// Enabled reports a -race build.
const Enabled = true
