//go:build race

package main

// raceEnabled gates assertions on sync.Pool-backed shell reuse, which the
// race detector makes non-deterministic (it drops a random fraction of
// Puts).
const raceEnabled = true
