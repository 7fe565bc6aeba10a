//go:build race

package server

// raceEnabled: the race detector is on, and allocation counts include its
// bookkeeping (sync.Pool, for one, drops what it is given at random).
const raceEnabled = true
