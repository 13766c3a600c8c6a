//go:build race

package collective

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of Put items, so pooled-buffer allocation counts mean nothing.
const raceEnabled = true
