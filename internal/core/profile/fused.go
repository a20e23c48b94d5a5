package profile

// The fused ingest→profile-build path. The columnar BuildUserProfiles
// re-reads the store's epoch-seconds column and recomputes every post's
// (day, hour) cell; when the dataset was just parsed, the sharded reader
// already had each timestamp in a register and can emit the packed cell
// key (epochDay*24+hour = floor(unixSec/3600)) for free. This build
// consumes those keys (trace.UserCells) and skips the per-post cell
// arithmetic — the profiles are bit-identical to BuildUserProfiles with
// default options, which the equivalence test pins.

import (
	"fmt"

	"darkcrowd/internal/trace"
)

// BuildUserProfilesFused builds one profile per active user from
// ingest-time cell keys instead of re-scanning the trace index. It is the
// UTC-frame fast path only: opts.Cells must be nil (custom frames need the
// timestamps, which the fused keys no longer carry). Thresholding,
// parallel sharding, observation and the result map behave exactly like
// BuildUserProfiles — both run the same build loop.
func BuildUserProfilesFused(cells *trace.UserCells, opts BuildOptions) (map[string]Profile, error) {
	if opts.Cells != nil {
		return nil, fmt.Errorf("profile: fused build only supports the default UTC frame")
	}
	return buildProfiles(cells, opts)
}
