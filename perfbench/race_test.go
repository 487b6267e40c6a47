//go:build race

package main

// The race detector slows the tiny runs several-fold, past their time limit.
func init() { raceEnabled = true }
