// Package spare is the one shape of real synchronization sim-critical code
// carries outside the kernel: a single atomically swapped slot that hands a
// buffer from one engine's reader to the next (internal/stable). The
// reviewed import passes; the directive covers its own line only, so the
// same import in another file of the package, un-annotated, is reported.
package spare

import (
	"sync/atomic" //simlint:allow goroutine -- fixture: one slot swapped whole, its contents trusted by nobody
)

var slot atomic.Pointer[[]byte]

func take() []byte {
	if b := slot.Swap(nil); b != nil {
		return *b
	}
	return nil
}

func handOn(buf []byte) { slot.Store(&buf) }
