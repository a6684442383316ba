// The population experiment: the device-fleet campaign of
// internal/population surfaced through the shared registry, so every
// frontend (fleetsim, fleetd jobs, fleetload) can run fleet studies with
// nothing but Params. The campaign runs under the installed SetCampaign:
// it checkpoints into the same journal as the figure sweeps — cell keys
// fold the campaign spec's digest, so the journal never mixes fleets —
// and polls the interrupt at shard boundaries.

package experiments

import (
	"fmt"

	"fleetsim/internal/population"
)

// PopulationSpec maps Params onto a campaign spec: zero-valued fields
// keep the calibrated campaign defaults.
func PopulationSpec(p Params) (population.Spec, error) {
	s := population.DefaultSpec()
	s.Seed = p.Seed
	if p.Scale > 0 {
		s.Scale = p.Scale
	}
	if p.Devices > 0 {
		s.Devices = p.Devices
	}
	if p.Tiers != "" {
		tiers, err := population.ParseTiers(p.Tiers)
		if err != nil {
			return s, err
		}
		s.Tiers = tiers
	}
	if p.Policies != "" {
		pols, err := population.ParsePolicies(p.Policies)
		if err != nil {
			return s, err
		}
		s.Policies = pols
	}
	return s, s.Validate()
}

// RunPopulation executes the fleet campaign for the registry: Params in,
// rendered report out. Shards run under the installed campaign: they
// checkpoint into its journal, and its interrupt stops the campaign at
// the next device-range boundary (the report then carries the INCOMPLETE
// marker and a -resume rerun completes the rest). Parameter errors render
// as the report body so the registry contract (always a string) holds.
func RunPopulation(p Params) string {
	spec, err := PopulationSpec(p)
	if err != nil {
		return fmt.Sprintf("population: %v\n", err)
	}
	res, err := population.Run(spec, currentCampaign())
	if err != nil {
		return fmt.Sprintf("population: %v\n", err)
	}
	return population.Format(res)
}
