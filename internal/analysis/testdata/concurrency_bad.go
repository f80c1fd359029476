// Fixture: the shared-write violations the concurrency analyzer must catch.
package core

import "sync"

func capturedAccumulator(items []int) int {
	total := 0
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(it int) {
			defer wg.Done()
			total += it //want:concurrency
		}(it)
	}
	wg.Wait()
	return total
}

var generation int

func packageLevelWrite(n int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		generation = n //want:concurrency
	}()
	wg.Wait()
}
