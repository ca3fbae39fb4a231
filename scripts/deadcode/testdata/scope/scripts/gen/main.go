// Command gen is a fixture: both calls of repeat pass 2, but scripts/ is
// outside rule 2, whose tests there call functions with other arguments.
package main

func main() { println(repeat("a", 2) + repeat("b", 2)) }

func repeat(s string, n int) string {
	out := ""
	for range n {
		out += s
	}
	return out
}
