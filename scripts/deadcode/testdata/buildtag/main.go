package main

import "example/internal/lib"

func main() { println(lib.Used()) }
