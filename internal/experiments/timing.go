package experiments

import (
	"time"

	"dcvalidate/internal/clock"
)

// now and since time experiments on the system clock: the tables report
// real engine performance.
func now() time.Time { return clock.System{}.Now() }

func since(t time.Time) time.Duration { return now().Sub(t) }
