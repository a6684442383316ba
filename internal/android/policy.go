package android

import "strings"

// PolicyKind selects the memory-management policy (Table 1 plus the
// follow-on policies grown on top of the paper's seam).
type PolicyKind int

// Policies.
const (
	// PolicyAndroid is stock Android: native GC + kernel LRU page swap.
	PolicyAndroid PolicyKind = iota
	// PolicyMarvin is the bookmarking-GC / object-granularity-swap
	// baseline.
	PolicyMarvin
	// PolicyFleet is the paper's system: BGC + runtime-guided swap.
	PolicyFleet
	// PolicySwam keeps the stock runtime but drives reclaim and lmkd
	// escalation off modeled app responsiveness — refault stall plus
	// decompression stall pressure — instead of raw free pages
	// (SWAM, arXiv 2306.08345).
	PolicySwam
)

// policyInfo is one registry entry: the typed kind, its canonical name and
// the constructor that installs the policy's per-process hooks into a
// freshly launched proc.
type policyInfo struct {
	Kind PolicyKind
	Name string
	Wire func(p *Proc)
}

// policyRegistry is the single source of truth for policy names: fleetsim
// flags, fleetd JobSpec validation, the experiment registry and the
// population parser all resolve through it, so a new policy registers here
// once instead of being switch-cased in three places.
var policyRegistry = []policyInfo{
	{PolicyAndroid, "Android", wireDefault},
	{PolicyMarvin, "Marvin", wireMarvin},
	{PolicyFleet, "Fleet", wireFleet},
	{PolicySwam, "Swam", wireDefault},
}

// PolicyNames lists the canonical policy names for CLI/API error messages.
func PolicyNames() []string {
	names := make([]string, len(policyRegistry))
	for i, e := range policyRegistry {
		names[i] = e.Name
	}
	return names
}

// info returns the registry entry for the kind (the PolicyAndroid entry for
// an out-of-range value, mirroring String's "unknown" leniency but keeping
// a usable Wire hook).
func (p PolicyKind) info() policyInfo {
	for _, e := range policyRegistry {
		if e.Kind == p {
			return e
		}
	}
	return policyRegistry[0]
}

func (p PolicyKind) String() string {
	for _, e := range policyRegistry {
		if e.Kind == p {
			return e.Name
		}
	}
	return "unknown"
}

// ParsePolicy maps a policy name (case-insensitive) back to its
// PolicyKind. The second result is false for unknown names.
func ParsePolicy(name string) (PolicyKind, bool) {
	for _, e := range policyRegistry {
		if strings.EqualFold(name, e.Name) {
			return e.Kind, true
		}
	}
	return 0, false
}
