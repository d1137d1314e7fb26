//go:build race

package gen_test

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back at random, so allocation counts are not the code's own.
const raceEnabled = true
