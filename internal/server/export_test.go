package server

// Knobs are the server's fixed sizes, which the external tests (package
// server_test) set through SetKnobs: id lists small enough to count.
type Knobs struct {
	MaxIDs int
}

// SetKnobs installs k, a zero field keeping its current value, and returns
// the function that puts the previous knobs back.
func SetKnobs(k Knobs) (restore func()) {
	ids := maxIDs
	if k.MaxIDs > 0 {
		maxIDs = k.MaxIDs
	}
	return func() { maxIDs = ids }
}

// HoldSlots takes every execution slot of s, so that an admitted query
// waits for one until release frees them all.
func HoldSlots(s *Server) (release func()) {
	for range cap(s.slots) {
		s.slots <- struct{}{}
	}
	return func() {
		for range cap(s.slots) {
			<-s.slots
		}
	}
}
