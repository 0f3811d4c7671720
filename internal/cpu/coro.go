//go:build go1.23

package cpu

import "iter"

// pull turns a thread body into the core's coroutine pair. It is the
// package's only use of iter (Go 1.23): the build constraint raises this
// file's language version alone, so the module itself keeps declaring
// go 1.22. Building the package needs a Go 1.23 or newer toolchain.
func pull(seq func(yield func(opKind) bool)) (next func() (opKind, bool), stop func()) {
	return iter.Pull(iter.Seq[opKind](seq))
}
