module xsearch/bench

go 1.24

require xsearch v0.0.0

replace xsearch => ../
