// Package admission is a deliberately non-conforming fixture shaped
// like the serving mode's admission queue: a closed queue-state enum
// with a hole in its switch (exhaust), and a wire-decoded load spec
// sizing a buffer unvalidated (inputflow).
package admission

// queueState mirrors the real admission queue's shed states.
// silod:enum
type queueState int

const (
	stateOpen queueState = iota
	stateShedding
	stateFull
)

// retryHint breaks exhaust: stateFull is not covered and there is no
// default, so a saturated queue silently hints the zero value.
func retryHint(s queueState) int {
	switch s {
	case stateOpen:
		return 0
	case stateShedding:
		return 2
	}
	return 0
}

// loadSpec mirrors a load-generator spec: it arrives off the wire.
// silod:untrusted
type loadSpec struct {
	Burst int
}

// preallocate breaks inputflow: the untrusted burst size backs an
// allocation before anything bounds it.
func preallocate(s loadSpec) []int64 {
	return make([]int64, s.Burst)
}
