package main

import "example/internal/lib"

func main() { println(lib.Totals([]int{1, 2})) }
