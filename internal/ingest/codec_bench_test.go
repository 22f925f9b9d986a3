package ingest_test

import (
	"fmt"
	"testing"

	"idebench/internal/core"
	"idebench/internal/ingest"
)

// BenchmarkBatchCodec prices one batch of flights rows — 500, the benchmark's
// ingest batch, and 5,000 — through the steps an append takes on the write
// path: encode (into a reused buffer), decode, and Materialize against the
// prepared flights table.
//
// The reflective-JSON batch codec this one replaced measured, on the same
// batches, an Intel Xeon with 2 vCPUs and go1.24 (per op: time, bytes,
// allocations):
//
//	rows  encode                   decode                   materialize
//	 500  2.18 ms  184 KB  13,970  2.11 ms  896 KB   7,518  0.12 ms   50 KB  40
//	5000  22.1 ms  1.9 MB 139,738  19.3 ms  9.2 MB  75,024  0.94 ms  474 KB  40
func BenchmarkBatchCodec(b *testing.B) {
	db, err := core.BuildData(2000, false, 11)
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{500, 5000} {
		src, err := ingest.NewSource(2000, 11)
		if err != nil {
			b.Fatal(err)
		}
		batch, err := src.Next(rows)
		if err != nil {
			b.Fatal(err)
		}
		data := mustEncode(b, batch)
		b.Run(fmt.Sprintf("%drows/encode", rows), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			buf := data[:0:0]
			for i := 0; i < b.N; i++ {
				buf = batch.AppendBinary(buf[:0])
			}
		})
		b.Run(fmt.Sprintf("%drows/decode", rows), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := ingest.DecodeBatch(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%drows/materialize", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ingest.Materialize(db, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
