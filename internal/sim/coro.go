//go:build go1.23

package sim

import "iter"

// newCoro makes seq a coroutine: next switches into it until it calls yield
// (returning the yielded processor, true) or returns (nil, false), and stop
// makes a pending yield return false so the coroutine can unwind. Both are
// direct coroutine switches that never enter the Go scheduler. The iter
// import is confined to this file, whose build constraint raises its language
// version, so go.mod can stay at go 1.22.
func newCoro(seq func(yield func(*Proc) bool)) (next func() (*Proc, bool), stop func()) {
	return iter.Pull(iter.Seq[*Proc](seq))
}
