package profile

import (
	"darkcrowd/internal/stats"
	"darkcrowd/internal/tz"
)

// The zone scan written out as its three separate steps — the 24 zone
// distances, the flat test and the argmin — for the definition tests to
// check Scanner.Scan and Polish against.

// zoneDistances fills dists[zi] with the circular EMD between p and the
// zone-zi reference profile derived from generic, read off one
// EMDCircularAllRotations call at out[(zi + MinOffset) mod 24]. dists and
// rot must hold 24 floats, scratch 48.
func zoneDistances(p, generic Profile, dists, rot, scratch []float64) error {
	rot, err := stats.EMDCircularAllRotations(p[:], generic[:], rot, scratch)
	if err != nil {
		return err
	}
	for zi := 0; zi < tz.HoursPerDay; zi++ {
		dists[zi] = rot[(zi+int(tz.MinOffset)+tz.HoursPerDay)%tz.HoursPerDay]
	}
	return nil
}

// isFlat reports whether p is EMD-closer to the uniform profile than to
// every zone profile derived from generic.
func isFlat(p, uniform, generic Profile, dists, rot, scratch []float64) (bool, error) {
	dUniform, err := stats.EMDCircularScratch(p[:], uniform[:], scratch)
	if err != nil {
		return false, err
	}
	if err := zoneDistances(p, generic, dists, rot, scratch); err != nil {
		return false, err
	}
	for _, dz := range dists {
		if dz <= dUniform {
			return false, nil
		}
	}
	return true, nil
}

// nearestZone returns the zone index with minimal distance, breaking ties
// toward the lower index.
func nearestZone(dists []float64) int {
	best := 0
	for zi := 1; zi < len(dists); zi++ {
		if dists[zi] < dists[best] {
			best = zi
		}
	}
	return best
}
