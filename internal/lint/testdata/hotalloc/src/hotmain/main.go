// Package hotmain holds the //lint:hotpath root for the hotalloc corpus.
package hotmain

import "hotdep"

type point struct {
	x, y int
}

// Root is the hot entry point: everything it reaches is allocation-free
// or waived.
//
//lint:hotpath
func Root(s *hotdep.Scratch, b *hotdep.GraphBuf, g *hotdep.Graph, n int) int {
	weights := map[string]int{"a": 1} // want `map literal of map\[string\]int in hotmain.Root, which is reachable from a //lint:hotpath root`
	steps := []int{1, 2, 3}           // want `slice literal of \[\]int in hotmain.Root`
	q := &point{x: 1, y: 2}           // want `heap composite literal of point in hotmain.Root`
	c := new(int)                     // want `new of int in hotmain.Root`
	p := point{x: 3, y: 4}            // value literal: no heap allocation
	//lint:ignore hotalloc one-time table built before the hot loop
	table := make([]int, n)
	total := hotdep.Helper(s, n) + len(hotdep.NewBuf(n)) + hotdep.BuildInto(b, g, n)
	return total + weights["a"] + steps[0] + q.x + p.y + *c + len(table)
}
