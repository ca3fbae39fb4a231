package main

import "example/internal/lib"

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	println(s.Area())
}
