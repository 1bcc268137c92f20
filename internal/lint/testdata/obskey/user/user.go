// Package user exercises obskey against the fixture registry.
package user

import (
	"fmt"

	"obsfix/internal/obs"
)

// Record registers metrics across the legal and illegal key shapes.
func Record(reg *obs.Registry, site string, shard int) {
	reg.Counter("user.events").Inc()                       // literal dotted key: clean
	reg.Counter("events").Inc()                            // want obskey "at least two dotted segments"
	reg.Counter("User.Events").Inc()                       // want obskey "at least two dotted segments"
	reg.Counter("user.fault." + site).Inc()                // dynamic family with dotted prefix: clean
	reg.Counter(site).Inc()                                // want obskey "no literal dotted prefix"
	reg.Counter("user" + site).Inc()                       // want obskey "not a dotted namespace"
	reg.Counter(fmt.Sprintf("user.shard.%d", shard)).Inc() // Sprintf family with dotted prefix: clean
	reg.Counter(fmt.Sprintf("shard%d", shard)).Inc()       // want obskey "not a dotted namespace"
	reg.Gauge("user.depth").Add(1)                         // clean
	done := reg.Span("user.op")                            // clean
	done()

	reg.HDR("user.latency").Observe(0) // clean
	reg.HDR("latency").Observe(0)      // want obskey "at least two dotted segments"

	// The same key under two kinds resolves two silent metrics.
	reg.Gauge("user.mixed").Add(0)   // want obskey "multiple kinds"
	reg.Counter("user.mixed").Inc()  // want obskey "multiple kinds"
	reg.HDR("user.mixed").Observe(0) // want obskey "multiple kinds"

	//x3:nolint(obskey) fixture: legacy single-segment key predates the namespace rule
	reg.Counter("legacy").Inc()
}
