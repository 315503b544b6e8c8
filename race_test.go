//go:build race

package epiphany

const raceEnabled = true
