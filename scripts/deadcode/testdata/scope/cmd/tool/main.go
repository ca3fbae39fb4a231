// Command tool is a fixture: both calls of pad pass the width 8.
package main

func main() { println(pad("a", 8) + pad("b", 8)) }

func pad(s string, width int) string {
	for len(s) < width {
		s += " "
	}
	return s
}
