// Package syncfix is the syncmisuse fixture: copied locks/pools, racy
// goroutine writes, and the sanctioned index-disjoint patterns.
package syncfix

import "sync"

type guarded struct {
	mu   sync.Mutex
	n    int
	pool sync.Pool
}

// --- lock copies: true positives ------------------------------------

func byValueParam(g guarded) int { // want "parameter copies sync.Mutex by value"
	return g.n
}

func (g guarded) valueMethod() int { // want "receiver copies sync.Mutex by value"
	return g.n
}

func copyAssign(g *guarded) {
	snapshot := *g // want "assignment copies sync.Mutex by value"
	_ = snapshot
}

func poolByValue(p sync.Pool) any { // want "parameter copies sync.Pool by value"
	return p.Get()
}

func rangeCopies(gs []guarded) int {
	n := 0
	for _, g := range gs { // want "range clause copies sync.Mutex by value"
		n += g.n
	}
	return n
}

// --- lock copies: clean ---------------------------------------------

func byPointer(g *guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

func rangeByIndex(gs []guarded) int {
	n := 0
	for i := range gs {
		n += gs[i].n
	}
	return n
}

func freshValue() {
	var mu sync.Mutex // fresh, never copied
	mu.Lock()
	mu.Unlock()
}

// --- goroutine shared writes: true positives ------------------------

func racyCounter(items []int) int {
	total := 0
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total += it // want "goroutine writes captured variable total"
		}()
	}
	wg.Wait()
	return total
}

func racyIndex(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	i := 0
	for _, it := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = it * 2 // want "captured index i that is mutated outside the goroutine"
		}()
		i++
	}
	wg.Wait()
	return out
}

func racyMap(items []string) map[string]int {
	out := map[string]int{}
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[it] = len(it) // want "goroutine writes captured map out"
		}()
	}
	wg.Wait()
	return out
}

// --- goroutine shared writes: clean ---------------------------------

// indexDisjoint is the index-disjoint fan-out pattern: every goroutine owns
// the element at its per-iteration loop index.
func indexDisjoint(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = it * 2
		}()
	}
	wg.Wait()
	return out
}

// closureLocalIndex claims indices through a closure-local variable fed
// by an atomic counter, like an index-claiming worker loop.
func closureLocalIndex(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	next := make(chan int, len(items))
	for i := range items {
		next <- i
	}
	close(next)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = items[i] * 2
			}
		}()
	}
	wg.Wait()
	return out
}

// --- annotated ------------------------------------------------------

// annotatedHandoff writes a captured variable, but the channel close
// publishes it with a happens-before edge the analyzer cannot see.
func annotatedHandoff(f func() error) error {
	done := make(chan struct{})
	var err error
	go func() {
		err = f() //slj:sync-ok published via close(done)
		close(done)
	}()
	<-done
	return err
}
