// Package sim is a nondeterminism fixture standing in for a measured
// simulator package: its import-path leaf ("sim") makes MeasuredPackage
// true, so every construct below is patrolled.
package sim

import (
	"math/rand" // want `import of math/rand in measured package`
	"os"
	"time"
)

func WallClock() int64 {
	t := time.Now()   // want `wall-clock time\.Now`
	_ = time.Since(t) // want `wall-clock time\.Since`
	return t.UnixNano()
}

// Seeded is the sanctioned shape of randomness: an explicit seeded source
// (what apputil.Rng returns). Only the import is flagged outside apputil.
func Seeded() *rand.Rand {
	return rand.New(rand.NewSource(1))
}

func Global() int {
	return rand.Intn(10) // want `global rand\.Intn uses the shared, randomly-seeded source`
}

// FastPathEnabled mirrors the real declared switch site: annotated, and
// reading a SIM_*-prefixed constant.
//
// dsmvet:env-switch
func FastPathEnabled() bool { return os.Getenv("SIM_NO_FASTPATH") == "" }

// BadPrefix is annotated but reads a non-SIM_ variable, so the annotation
// does not cover it.
//
// dsmvet:env-switch
func BadPrefix() string { return os.Getenv("HOME") } // want `os\.Getenv outside a declared dsmvet:env-switch site`

func Undeclared() string { return os.Getenv("SIM_UNDECLARED") } // want `os\.Getenv outside a declared dsmvet:env-switch site`

func Pick(a, b chan int) int {
	select { // want `select with 2 communication cases`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// TryRecv is deterministic: one communication case plus default.
func TryRecv(a chan int) (int, bool) {
	select {
	case v := <-a:
		return v, true
	default:
		return 0, false
	}
}
