//go:build !race

package gen_test

const raceEnabled = false
