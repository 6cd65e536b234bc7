package main

// Example holds the example's whole output: both generated programs
// return the single-threaded sum.
func Example() {
	main()
	// Output:
	// single-threaded: sum=4081 in 3331 instructions
	// MTCG       sum=4081  computation=3078  communication=2564  queues=6
	// MTCG+COCO  sum=4081  computation=3078  communication=2562  queues=6
}
