package main

import "example/internal/lib"

func main() { println(lib.Scaled(1, 2)) }
