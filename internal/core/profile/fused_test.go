package profile

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"darkcrowd/internal/trace"
)

// fusedTestIngest ingests a seeded CSV with CollectCells set: mixed user
// activity levels, multi-day spans, pre-1970 instants.
func fusedTestIngest(t *testing.T, workers int) *trace.IngestResult {
	t.Helper()
	r := rand.New(rand.NewSource(17))
	var b strings.Builder
	b.WriteString("user_id,time_rfc3339\n")
	for i := 0; i < 4000; i++ {
		// Skewed user popularity so some users fall under the threshold.
		u := fmt.Sprintf("user%02d", r.Intn(40)*r.Intn(2)+r.Intn(40))
		sec := int64(-200_000) + r.Int63n(100*86400)
		fmt.Fprintf(&b, "%s,%s\n", u, time.Unix(sec, 0).UTC().Format(time.RFC3339))
	}
	res, err := trace.IngestCSV("fused-test", []byte(b.String()), trace.IngestOptions{
		Workers:      workers,
		CollectCells: true,
	})
	if err != nil {
		t.Fatalf("IngestCSV: %v", err)
	}
	return res
}

// TestFusedBuildMatchesColumnar pins the BuildUserProfilesFused shim to
// BuildUserProfiles on the same dataset, across worker counts and
// thresholds.
func TestFusedBuildMatchesColumnar(t *testing.T) {
	t.Parallel()
	for _, ingestWorkers := range []int{1, 4} {
		res := fusedTestIngest(t, ingestWorkers)
		for _, minPosts := range []int{0, 5, 50} {
			for _, workers := range []int{1, 3, 8} {
				want, wantErr := BuildUserProfiles(res.Dataset, BuildOptions{MinPosts: minPosts, Parallelism: workers})
				got, gotErr := BuildUserProfilesFused(res.Cells, BuildOptions{MinPosts: minPosts, Parallelism: workers})
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("error mismatch (min=%d w=%d): columnar %v, fused %v", minPosts, workers, wantErr, gotErr)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("profile mismatch (ingestWorkers=%d min=%d w=%d): %d vs %d users",
						ingestWorkers, minPosts, workers, len(want), len(got))
				}
			}
		}
	}
}

// TestFusedBuildRejectsCustomFrames pins the shim's contract: it builds
// in the default UTC frame only.
func TestFusedBuildRejectsCustomFrames(t *testing.T) {
	t.Parallel()
	res := fusedTestIngest(t, 2)
	if _, err := BuildUserProfilesFused(res.Cells, BuildOptions{Cells: UTCCells()}); err == nil {
		t.Fatal("fused build accepted a custom CellOf")
	}
}

// TestFusedBuildNoActivity pins the empty-result error contract.
func TestFusedBuildNoActivity(t *testing.T) {
	t.Parallel()
	res := fusedTestIngest(t, 2)
	_, err := BuildUserProfilesFused(res.Cells, BuildOptions{MinPosts: 1 << 30})
	if !errors.Is(err, ErrNoActivity) {
		t.Fatalf("err = %v, want ErrNoActivity", err)
	}
}
