// Package lib is a fixture: Square.Area is called through Shape only.
package lib

// Shape is a module interface.
type Shape interface{ Area() int }

// Square is a Shape.
type Square struct{ Side int }

// Area is named by no call: the command calls it through Shape.
func (s Square) Area() int { return s.Side * s.Side }
