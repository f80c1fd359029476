// Fixture: goroutine-leak shapes the interprocedural leaks analyzer must
// catch — including the spawn-in-helper case where the join obligation
// escapes through a parameter and a caller drops it.
package core

import "sync"

// spawnCrew spawns on its WaitGroup parameter: the obligation escapes to
// every caller, so the helper itself is clean.
func spawnCrew(wg *sync.WaitGroup, n int) {
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
}

// forgetsToJoin calls the spawning helper and never waits.
func forgetsToJoin(n int) {
	var wg sync.WaitGroup
	spawnCrew(&wg, n) //want:leaks
}

// spawnLeafDeep / forwardSpawn: the obligation survives one forwarding hop
// and is dropped at the top.
func spawnLeafDeep(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
}

func forwardSpawn(wg *sync.WaitGroup) {
	spawnLeafDeep(wg)
}

func topDropsObligation() {
	var wg sync.WaitGroup
	forwardSpawn(&wg) //want:leaks
}

// noSignalNoJoin has no completion signal at all and never joins anything.
func noSignalNoJoin() {
	go func() { //want:leaks
		chew()
	}()
}

func chew() {}

// signalsButNeverWaits Dones a local WaitGroup nobody ever Waits on; the
// object is not a parameter, so no caller can discharge it either.
func signalsButNeverWaits() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { //want:leaks
		defer wg.Done()
	}()
}

// fireAndForget spawns a function directly, with no join anywhere.
func fireAndForget(n int) {
	for i := 0; i < n; i++ {
		go work(i) //want:leaks
	}
}

func work(int) {}
