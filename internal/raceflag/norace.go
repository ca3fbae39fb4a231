//go:build !race

// Package raceflag tells tests whether the binary was built with -race.
// Two kinds of assertion cannot hold there and skip on it: wall-clock
// shapes (the detector inflates CPU 5-20x, which time-compressed
// simulations amplify) and allocation budgets (the detector's shadow
// bookkeeping allocates alongside the code under test). The race coverage
// itself still comes from running the code.
package raceflag

// Enabled reports a -race build.
const Enabled = false
