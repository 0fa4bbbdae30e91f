//go:build race

package repro

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of what is put into it, so allocation counts are not meaningful.
const raceEnabled = true
