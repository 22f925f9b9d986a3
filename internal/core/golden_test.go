package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"idebench/internal/dataset"
)

// factDigest is the SHA-256 of a table's fact columns in schema order: per
// column its name, then for a nominal column its dictionary (code order) and
// codes, for a quantitative column the IEEE-754 bits of every value.
func factDigest(t *dataset.Table) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, c := range t.Columns {
		str(c.Field.Name)
		if c.Field.Kind == dataset.Nominal {
			vals := c.Dict.Values()
			put(uint64(len(vals)))
			for _, v := range vals {
				str(v)
			}
			put(uint64(len(c.Codes)))
			for _, code := range c.Codes {
				put(uint64(code))
			}
			continue
		}
		put(uint64(len(c.Nums)))
		for _, v := range c.Nums {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildDataGolden pins the generated flights table bit for bit. The
// digests were recorded from the row-at-a-time generator; any change to the
// copula pipeline (block size, worker count, float operation order) must
// reproduce them exactly. 1,000,003 rows is not a multiple of any block
// size, so the ragged last block is covered.
func TestBuildDataGolden(t *testing.T) {
	cases := []struct {
		rows int
		seed int64
		want string
	}{
		{30_000, 1, "c2f4b6ab814c671cbe4d0c7b977da0fff6f3ab11a4a486ad6375bf9753865723"},
		{30_000, 7919, "852f131270e8a5926f54fdcb81987edf86e892b06142b7349e2583689b9db995"},
		{250_000, 1, "072d24b0272e000a302547f40a536c7ca115cf4a78751b0e315e787fb58caeae"},
		{1_000_003, 1, "a656c88595b907e85782e23f4e46fdc3bc323355210350abd1d67e20c5c6b6fe"},
	}
	for _, c := range cases {
		db, err := BuildData(c.rows, false, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := factDigest(db.Fact); got != c.want {
			t.Errorf("BuildData(%d, seed %d) digest %s, want %s", c.rows, c.seed, got, c.want)
		}
	}
}
