// Package datagen implements the benchmark's data generation pipeline
// (paper Sec. 4.2): a synthetic seed generator reproducing the U.S. domestic
// flights dataset's schema and distribution shapes (the real BTS data is not
// redistributable), a copula-based scaler that grows any seed table to an
// arbitrary size while preserving marginal distributions and
// cross-attribute correlation, and a normalizer that splits the
// de-normalized table into a star schema.
//
// Generation is deterministic to the bit: a (seed table, row count, seed)
// always yields the same table, however many cores build it. The scaler
// draws its random numbers on one goroutine in row order and spreads only
// the pure per-value arithmetic across GOMAXPROCS workers, each writing its
// own row range; tables of at most one block (genBlock rows) are built on
// the calling goroutine. Golden digests in internal/core and internal/ingest
// pin the output.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"idebench/internal/dataset"
	"idebench/internal/stats"
)

// Carrier codes modelled on the 2017 BTS reporting carriers.
var carrierNames = []string{
	"WN", "DL", "AA", "OO", "UA", "EV", "B6", "AS", "NK", "F9", "HA", "VX", "YV", "QX",
}

// Airports with their states; popularity is Zipf over this order.
var airports = []struct{ code, state string }{
	{"ATL", "GA"}, {"ORD", "IL"}, {"DFW", "TX"}, {"DEN", "CO"}, {"LAX", "CA"},
	{"SFO", "CA"}, {"PHX", "AZ"}, {"IAH", "TX"}, {"LAS", "NV"}, {"MSP", "MN"},
	{"MCO", "FL"}, {"SEA", "WA"}, {"DTW", "MI"}, {"BOS", "MA"}, {"EWR", "NJ"},
	{"CLT", "NC"}, {"LGA", "NY"}, {"SLC", "UT"}, {"JFK", "NY"}, {"BWI", "MD"},
	{"MDW", "IL"}, {"DCA", "VA"}, {"FLL", "FL"}, {"SAN", "CA"}, {"MIA", "FL"},
	{"PHL", "PA"}, {"TPA", "FL"}, {"DAL", "TX"}, {"HOU", "TX"}, {"PDX", "OR"},
	{"STL", "MO"}, {"HNL", "HI"}, {"AUS", "TX"}, {"OAK", "CA"}, {"MSY", "LA"},
	{"MCI", "MO"}, {"SJC", "CA"}, {"SMF", "CA"}, {"SNA", "CA"}, {"CLE", "OH"},
	{"IND", "IN"}, {"RDU", "NC"}, {"CMH", "OH"}, {"SAT", "TX"}, {"PIT", "PA"},
	{"ABQ", "NM"}, {"CVG", "OH"}, {"PBI", "FL"}, {"BUR", "CA"}, {"JAX", "FL"},
	{"ONT", "CA"}, {"BUF", "NY"}, {"OMA", "NE"}, {"BDL", "CT"}, {"ANC", "AK"},
	{"RIC", "VA"}, {"MEM", "TN"}, {"BHM", "AL"}, {"TUS", "AZ"}, {"BOI", "ID"},
}

// FlightsTable is the name of the generated fact table.
const FlightsTable = "flights"

// FlightsSchema returns the schema of the de-normalized flights table
// (paper Fig. 2).
func FlightsSchema() *dataset.Schema {
	return dataset.MustSchema([]dataset.Field{
		{Name: "carrier", Kind: dataset.Nominal},
		{Name: "origin_airport", Kind: dataset.Nominal},
		{Name: "origin_state", Kind: dataset.Nominal},
		{Name: "dest_airport", Kind: dataset.Nominal},
		{Name: "dest_state", Kind: dataset.Nominal},
		{Name: "month", Kind: dataset.Quantitative},
		{Name: "day_of_week", Kind: dataset.Quantitative},
		{Name: "dep_hour", Kind: dataset.Quantitative},
		{Name: "dep_delay", Kind: dataset.Quantitative},
		{Name: "arr_delay", Kind: dataset.Quantitative},
		{Name: "taxi_out", Kind: dataset.Quantitative},
		{Name: "air_time", Kind: dataset.Quantitative},
		{Name: "distance", Kind: dataset.Quantitative},
		{Name: "actual_elapsed", Kind: dataset.Quantitative},
	})
}

// GenerateSeed synthesizes n rows of flights-like data with realistic
// marginals and correlations:
//
//   - carrier and airports follow Zipf popularity (hub concentration);
//   - dep_hour is bimodal (morning and late-afternoon banks);
//   - dep_delay is a mixture of a slightly-early normal mode and an
//     exponential late tail whose rate grows over the day (delay
//     propagation);
//   - arr_delay = dep_delay + en-route noise (strong correlation);
//   - distance is log-normal; air_time ≈ distance/7.5 + taxi effects
//     (near-perfect correlation); actual_elapsed = air_time + taxis.
func GenerateSeed(n int, seed int64) (*dataset.Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("datagen: seed size must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	carrierZipf, err := stats.NewZipf(len(carrierNames), 0.9)
	if err != nil {
		return nil, err
	}
	airportZipf, err := stats.NewZipf(len(airports), 0.8)
	if err != nil {
		return nil, err
	}

	schema := FlightsSchema()
	b := dataset.NewBuilder(FlightsTable, schema, n)
	col := schema.FieldIndex

	for i := 0; i < n; i++ {
		carrier := carrierNames[carrierZipf.Draw(rng)]
		origin := airportZipf.Draw(rng)
		dest := airportZipf.Draw(rng)
		for dest == origin {
			dest = airportZipf.Draw(rng)
		}

		month := float64(1 + rng.Intn(12))
		dow := float64(1 + rng.Intn(7))
		depHour := sampleDepHour(rng)
		depDelay := sampleDepDelay(rng, depHour)
		arrDelay := depDelay + rng.NormFloat64()*12 - 2

		distance := math.Exp(rng.NormFloat64()*0.65 + 6.55) // median ~700mi
		if distance < 67 {
			distance = 67
		}
		if distance > 4983 {
			distance = 4983
		}
		airTime := distance/7.5 + 18 + rng.NormFloat64()*6
		if airTime < 15 {
			airTime = 15
		}
		taxiOut := 10 + rng.ExpFloat64()*6
		taxiIn := 4 + rng.ExpFloat64()*3
		elapsed := airTime + taxiOut + taxiIn

		b.AppendString(col("carrier"), carrier)
		b.AppendString(col("origin_airport"), airports[origin].code)
		b.AppendString(col("origin_state"), airports[origin].state)
		b.AppendString(col("dest_airport"), airports[dest].code)
		b.AppendString(col("dest_state"), airports[dest].state)
		b.AppendNum(col("month"), month)
		b.AppendNum(col("day_of_week"), dow)
		b.AppendNum(col("dep_hour"), depHour)
		b.AppendNum(col("dep_delay"), math.Round(depDelay))
		b.AppendNum(col("arr_delay"), math.Round(arrDelay))
		b.AppendNum(col("taxi_out"), math.Round(taxiOut))
		b.AppendNum(col("air_time"), math.Round(airTime))
		b.AppendNum(col("distance"), math.Round(distance))
		b.AppendNum(col("actual_elapsed"), math.Round(elapsed))
	}
	return b.Build()
}

// sampleDepHour draws from a two-bank mixture: a 7-9am morning bank and a
// 4-7pm afternoon bank over a broad daytime base.
func sampleDepHour(rng *rand.Rand) float64 {
	u := rng.Float64()
	var h float64
	switch {
	case u < 0.30:
		h = 8 + rng.NormFloat64()*1.4 // morning bank
	case u < 0.60:
		h = 17 + rng.NormFloat64()*1.8 // afternoon bank
	default:
		h = 6 + rng.Float64()*16 // daytime base 6am-10pm
	}
	h = math.Round(h)
	if h < 0 {
		h = 0
	}
	if h > 23 {
		h = 23
	}
	return h
}

// sampleDepDelay draws a mixture of an on-time mode, an exponential late
// tail whose rate grows over the day (delay propagation), and a rare
// extreme-disruption tail. The extreme component mirrors the real BTS data,
// where maximum delays reach ~2000 minutes; it is what makes the outer bins
// of delay histograms genuinely sparse — the property that drives the
// paper's missing-bins metric.
func sampleDepDelay(rng *rand.Rand, depHour float64) float64 {
	if rng.Float64() < 0.004 {
		d := 240 + rng.ExpFloat64()*250
		if d > 1950 {
			d = 1950
		}
		return d
	}
	lateProb := 0.18 + 0.012*depHour // delays accumulate over the day
	if rng.Float64() < lateProb {
		return 5 + rng.ExpFloat64()*(25+depHour)
	}
	return rng.NormFloat64()*5 - 2
}
