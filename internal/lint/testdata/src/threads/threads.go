// Package threads is a threaddiscipline fixture: native Go concurrency
// that simulated-machine packages must not use.
package threads

import "sync" // want `import of sync in a simulated-machine package`

func spawn(work func()) {
	go work() // want `go statement in a simulated-machine package`
}

func channels() {
	ch := make(chan int, 1) // want `channel type in a simulated-machine package`
	ch <- 1                 // want `channel send in a simulated-machine package`
	_ = <-ch                // want `channel receive in a simulated-machine package`
	close(ch)               // want `channel close in a simulated-machine package`
}

func choose(a, b chan int) int { // want `channel type in a simulated-machine package`
	select { // want `select statement in a simulated-machine package`
	case x := <-a: // want `channel receive in a simulated-machine package`
		return x
	case y := <-b: // want `channel receive in a simulated-machine package`
		return y
	}
}

func nativeLock(mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
}

// plainHelpers stay legal: the discipline bans concurrency primitives,
// not ordinary sequential code.
func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
