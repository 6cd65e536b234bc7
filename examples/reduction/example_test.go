package main

// Example holds the example's whole output: Figure 4, where COCO sends
// the live-out once against MTCG's 2000 produces.
func Example() {
	main()
	// Output:
	// single-threaded result: 5005000
	// MTCG       produces=2000 consumes=2000 duplicated-branch-executions=1000
	// MTCG+COCO  produces=1 consumes=1 duplicated-branch-executions=0
	// COCO communicates the live-out once, at the loop exit (Figure 4).
}
