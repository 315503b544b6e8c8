//go:build !race

package epiphany

const raceEnabled = false
