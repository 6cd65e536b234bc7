package main

// Example holds the example's whole output: MTCG's and COCO's programs
// are correct under an arbitrary custom partition (Figure 2).
func Example() {
	main()
	// Output:
	// MTCG       result=7425 (correct), communication instructions=1510
	// MTCG+COCO  result=7425 (correct), communication instructions=1254
	// MTCG generated correct code for an arbitrary custom partition (Figure 2).
}
