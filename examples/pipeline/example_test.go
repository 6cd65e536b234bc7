package main

// Example holds the example's whole output: DSWP's two-stage pipeline
// returns the single-threaded result 1.9x faster on two cores.
func Example() {
	main()
	// Output:
	// result -6516276554968071986 matches single-threaded run
	// stage 0 (traverse.t0): 15 instructions assigned
	// stage 1 (traverse.t1): 9 instructions assigned
	// single-threaded: 83287 cycles
	// pipelined (2 cores): 43287 cycles
	// speedup: 1.92x
}
