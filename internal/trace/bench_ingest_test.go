package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// benchDataset builds a mid-sized CSV + snapshot pair once per benchmark
// binary: enough rows that per-byte costs dominate setup noise.
func benchIngestInput(b *testing.B) (csvBytes, snapBytes []byte, posts int) {
	b.Helper()
	var buf bytes.Buffer
	buf.WriteString("user_id,time_rfc3339\n")
	for i := 0; i < 100_000; i++ {
		// 997 users, deterministic spread over ~4 months of 2017.
		u := i * 7919 % 997
		sec := int64(1488368000) + int64(i%9973)*997
		buf.WriteString("user")
		buf.WriteByte(byte('a' + u%26))
		buf.WriteByte(byte('a' + (u/26)%26))
		buf.WriteByte(byte('a' + u/676))
		buf.WriteByte(',')
		buf.Write(appendRFC3339(nil, sec, 0))
		buf.WriteByte('\n')
	}
	csvBytes = buf.Bytes()
	ds, _, err := ingest("bench", csvBytes, IngestOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ds.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	return csvBytes, snap.Bytes(), ds.NumPosts()
}

// reportBytesPerPost reports the live heap the dataset build returns
// holds, per post ("B/post"): heap in use after a GC with the result kept
// alive, minus heap in use after a GC before the build. input — what the
// build reads — is kept alive across both readings, so its bytes cancel;
// scratch the build drops is not counted; a negative delta reads 0.
func reportBytesPerPost(b *testing.B, input any, build func() *Dataset) {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ds := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := max(int64(after.HeapAlloc)-int64(before.HeapAlloc), 0)
	b.ReportMetric(float64(delta)/float64(ds.NumPosts()), "B/post")
	runtime.KeepAlive(ds)
	runtime.KeepAlive(input)
}

func BenchmarkSnapshotDecode(b *testing.B) {
	_, snapBytes, posts := benchIngestInput(b)
	decode := func() *Dataset {
		ds, err := ReadSnapshotBytes(snapBytes)
		if err != nil {
			b.Fatal(err)
		}
		if ds.NumPosts() != posts {
			b.Fatal("short decode")
		}
		return ds
	}
	b.SetBytes(int64(len(snapBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
	reportBytesPerPost(b, snapBytes, decode)
}

func BenchmarkParallelRead(b *testing.B) {
	csvBytes, _, posts := benchIngestInput(b)
	read := func() *Dataset {
		res, err := IngestCSV("bench", csvBytes, IngestOptions{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if res.Dataset.NumPosts() != posts {
			b.Fatal("short read")
		}
		return res.Dataset
	}
	b.SetBytes(int64(len(csvBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
	reportBytesPerPost(b, csvBytes, read)
}

// tableICSV is a CSV trace at the batch-twitter scale of Table I: 5,906
// users behind 531,990 time-ordered posts over one year, with user IDs
// shaped like the crowd generator's ("u07-de-00042"). The per-post
// interning cost shows only at this ratio of posts to users inside the
// full scan; BenchmarkParallelRead's 997 users on 100k posts hides it.
func tableICSV() []byte {
	const users, posts = 5906, 531990
	regions := []string{"au-nsw", "br", "de", "it", "jp", "my", "us-il", "us-ny"}
	ids := make([]string, users)
	for u := range ids {
		ids[u] = fmt.Sprintf("u%02d-%s-%05d", u%13, regions[u%len(regions)], u)
	}
	buf := make([]byte, 0, posts*40)
	buf = append(buf, "user_id,time_rfc3339\n"...)
	x := uint64(1)
	for i := 0; i < posts; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf = append(buf, ids[(x>>33)%users]...)
		buf = append(buf, ',')
		buf = appendRFC3339(buf, 1483228800+int64(i)*59, 0)
		buf = append(buf, '\n')
	}
	return buf
}

// BenchmarkIngestTableI times IngestCSV of tableICSV with every core
// (-cpu sets how many).
func BenchmarkIngestTableI(b *testing.B) {
	csvBytes := tableICSV()
	read := func() *Dataset {
		res, err := IngestCSV("tableI", csvBytes, IngestOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Dataset.NumPosts() != 531990 || res.Dataset.Index().NumUsers() != 5906 {
			b.Fatalf("read %d posts by %d users", res.Dataset.NumPosts(), res.Dataset.Index().NumUsers())
		}
		return res.Dataset
	}
	b.SetBytes(int64(len(csvBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
	reportBytesPerPost(b, csvBytes, read)
}

// BenchmarkCompact times one head fold: 65,536 appended posts (a quarter
// of them by users the base has not seen) folded into a 100,000-post base,
// the daemon's default fold size. Appends are not timed.
func BenchmarkCompact(b *testing.B) {
	_, snapBytes, _ := benchIngestInput(b)
	base, err := ReadSnapshotBytes(snapBytes)
	if err != nil {
		b.Fatal(err)
	}
	const tail = 1 << 16
	ids := make([]string, 1000)
	for i := range ids {
		if i%4 == 0 {
			ids[i] = fmt.Sprintf("new-user-%d", i)
		} else {
			ids[i] = base.Index().UserID(i % base.Index().NumUsers())
		}
	}
	fill := func() *ShardedHead {
		h := NewShardedHead("bench", base, 0)
		for i := 0; i < tail; i++ {
			if err := h.Append(ids[i%len(ids)], int64(1496275200+i*37)); err != nil {
				b.Fatal(err)
			}
		}
		return h
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := fill()
		b.StartTimer()
		if ds := h.Compact(); ds.NumPosts() != base.NumPosts()+tail {
			b.Fatal("short fold")
		}
	}
	reportBytesPerPost(b, base, func() *Dataset { return fill().Compact() })
}
