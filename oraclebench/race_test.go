//go:build race

package main

// The race detector slows builds about tenfold; the tiny serve-reload
// run stretches its window and reload interval to match.
func init() { reloadStretch = 10 }
