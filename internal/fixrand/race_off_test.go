//go:build !race

package fixrand

const raceEnabled = false
