package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"idebench/internal/engine"
	"idebench/internal/query"
)

// benchShape builds one result and the partial of the same bins: estimated
// (non-zero margins), every aggregate a SUM/AVG so the partial carries its
// widest column.
func benchShape(bins, aggs int, twoD bool) (*query.Result, *engine.Partial) {
	rng := rand.New(rand.NewSource(int64(bins)))
	res := query.NewResult()
	res.RowsSeen, res.TotalRows, res.Watermark = 120_000, 250_000, 250_000
	p := &engine.Partial{RowsSeen: 120_000, Population: 250_000, Watermark: 250_000}
	for i := 0; i < bins; i++ {
		k := query.BinKey{A: int64(i)}
		if twoD {
			k = query.BinKey{A: int64(i / 40), B: int64(i % 40)}
		}
		bv := &query.BinValue{Values: make([]float64, aggs), Margins: make([]float64, aggs)}
		pb := engine.PartialBin{Key: k, N: 1 + rng.Int63n(5000), W: make([]engine.WelfordWire, aggs),
			Mins: make([]float64, aggs), Maxs: make([]float64, aggs)}
		for a := 0; a < aggs; a++ {
			bv.Values[a], bv.Margins[a] = rng.NormFloat64()*1e4, rng.Float64()*50
			pb.W[a] = engine.WelfordWire{N: pb.N, Mean: rng.NormFloat64() * 100, M2: rng.Float64() * 1e6}
			pb.Mins[a], pb.Maxs[a] = math.Inf(1), math.Inf(-1)
		}
		res.Bins[k] = bv
		p.Bins = append(p.Bins, pb)
	}
	return res, p
}

// BenchmarkSnapshotCodec prices one snapshot frame's encode and decode on the
// two shapes the budget quotes — a 25-bin 1-D and a 1000-bin 2-D × 2-aggregate
// visualization — for a result frame, a partial frame, and, as the yardstick,
// the JSON document of the same result (what the frame was before version 6).
func BenchmarkSnapshotCodec(b *testing.B) {
	for _, shape := range []struct {
		bins, aggs int
		twoD       bool
	}{{25, 1, false}, {1000, 2, true}} {
		res, partial := benchShape(shape.bins, shape.aggs, shape.twoD)
		msgs := map[string]*ServerMsg{
			"result":  {Type: MsgSnapshot, ID: 7, Seq: 3, Final: true, Result: res},
			"partial": {Type: MsgSnapshot, ID: 7, Seq: 3, Final: true, Partial: partial},
		}
		for _, kind := range []string{"result", "partial"} {
			m := msgs[kind]
			name := fmt.Sprintf("%dbins/%s", shape.bins, kind)
			frame := appendSnapshot(nil, m)
			b.Run(name+"/encode", func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(frame)))
				for i := 0; i < b.N; i++ {
					frame = appendSnapshot(frame[:0], m)
				}
			})
			b.Run(name+"/decode", func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(frame)))
				for i := 0; i < b.N; i++ {
					if _, err := decodeServerMsg(opBinary, frame); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		doc, err := json.Marshal(msgs["result"])
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("%dbins/json-document", shape.bins)
		b.Run(name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(msgs["result"]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				var m ServerMsg
				if err := json.Unmarshal(doc, &m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
