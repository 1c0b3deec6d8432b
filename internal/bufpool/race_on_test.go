//go:build race

package bufpool

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so allocation counts that rest on pooling do not hold.
const raceEnabled = true
