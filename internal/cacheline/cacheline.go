// Package cacheline holds the one number and the one allocation idiom the
// sampling plane's layout invariant rests on: a walker never shares a cache
// line it writes on the step path with another walker (DESIGN.md,
// "Performance architecture", rule 4).
//
// The invariant is kept by size alone. Go's allocator serves a request from
// the smallest size class that fits, every size class that is a multiple of
// 64 starts its slots on 64-byte boundaries, and every multiple of 64 up to
// 512 is itself a size class (beyond 512 all classes are multiples of 64).
// So an object whose size is a multiple of Size shares no line with any
// other object, wherever and in whatever order it was allocated. Two
// limits: a struct that holds pointers must stay at or under 512 bytes
// (larger ones are prefixed with an 8-byte allocation header, which shifts
// them off the boundary), and arrays must be pointer-free, which Make's
// callers' element types are.
package cacheline

import "reflect"

// Size is the cache-line size the layout is built for. Structs on the step
// path pad themselves to a multiple of it.
const Size = 64

// Make returns a zeroed []T of length n whose backing array fills a whole
// number of cache lines, so no other allocation shares a line with it. T
// must not contain pointers.
func Make[T any](n int) []T {
	elem := int(reflect.TypeFor[T]().Size())
	c := n
	for c*elem%Size != 0 {
		c++
	}
	return make([]T, n, c)
}
