// Fixture: every allocation class the allocflow analyzer must catch in the
// own body of an annotated function.
package wordops

type acc struct{ n int }

//alsrac:hotpath
func kernelBad(dst, src []uint64, label, suffix string) int {
	tmp := make([]uint64, len(src)) //want:allocflow
	copy(tmp, src)
	grown := append(src, 0) //want:allocflow
	_ = grown
	box := new(acc) //want:allocflow
	_ = box
	table := map[int]int{1: 2} //want:allocflow
	_ = table
	lits := []int{1, 2, 3} //want:allocflow
	_ = lits
	ptr := &acc{n: 1} //want:allocflow
	_ = ptr
	f := func() {} //want:allocflow
	f()
	defer f()              //want:allocflow
	name := label + suffix //want:allocflow
	_ = name
	//alsrac:alloc-ok
	pad := make([]uint64, 4) //want:allocflow
	_ = pad
	return len(dst)
}

// Unannotated functions may allocate freely.
func helperAllocates(n int) []uint64 {
	return make([]uint64, n)
}
