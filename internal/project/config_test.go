package project

import (
	"math"
	"testing"
)

// TestCheckConfigRejectsNonFinite: NaN compares false against every
// bound, so without an explicit check a NaN scale would pass validation
// and a NaN HHours would skip its default. Every non-finite scale must
// panic under the constructor's convention.
func TestCheckConfigRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"WorkScale NaN", func(c *Config) { c.WorkScale = math.NaN() }},
		{"WorkScale +Inf", func(c *Config) { c.WorkScale = math.Inf(1) }},
		{"HostScale NaN", func(c *Config) { c.HostScale = math.NaN() }},
		{"HostScale +Inf", func(c *Config) { c.HostScale = math.Inf(1) }},
		{"HHours NaN", func(c *Config) { c.HHours = math.NaN() }},
		{"HHours +Inf", func(c *Config) { c.HHours = math.Inf(1) }},
		{"HHours -Inf", func(c *Config) { c.HHours = math.Inf(-1) }},
	} {
		cfg := determinismConfig(t, 777)
		tc.set(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: checkConfig did not panic", tc.name)
				}
			}()
			checkConfig(cfg)
		}()
	}
	// The finite fixture itself passes.
	checkConfig(determinismConfig(t, 777))
}
