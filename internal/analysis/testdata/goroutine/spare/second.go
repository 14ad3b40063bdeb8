package spare

import (
	"sync/atomic" // want `import of "sync/atomic": real synchronization primitives race on the OS scheduler`
)

// A second slot nobody reviewed.
var other atomic.Pointer[[]byte]

func takeOther() []byte {
	if b := other.Swap(nil); b != nil {
		return *b
	}
	return nil
}
