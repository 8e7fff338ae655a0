package sim

// resize returns a length-n slice backed by *buf, reallocating only
// when the capacity is insufficient. Element contents are unspecified
// (they may hold stale data from a previous use), so callers must
// overwrite every element before reading. The result aliases *buf and
// is valid until the buffer's next resize.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// samePtrs reports whether two pointer slices hold the same elements in
// the same order. Identity (not value) comparison is what the rate memo
// wants: runtime job state lives behind these pointers, and state
// changes are tracked separately via the rate generation counter.
func samePtrs[T any](a, b []*T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
