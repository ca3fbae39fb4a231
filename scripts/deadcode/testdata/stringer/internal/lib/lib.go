// Package lib is a fixture: fmt calls Celsius.String through fmt.Stringer.
package lib

import "strconv"

// Celsius is a temperature.
type Celsius int

// String is named by no call.
func (c Celsius) String() string { return strconv.Itoa(int(c)) + "C" }
