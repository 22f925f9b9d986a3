package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"idebench/internal/driver"
	"idebench/internal/metrics"
	"idebench/internal/workflow"
)

// ReadDetailedCSV parses a detailed report written by WriteDetailedCSV back
// into records, so saved runs can be re-aggregated and analyzed offline
// (`idebench analyze`). Empty numeric fields decode as NaN, mirroring the
// writer's NaN handling. Only the current DetailedHeader is accepted.
func ReadDetailedCSV(r io.Reader) ([]driver.Record, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("report: read header: %w", err)
	}
	if len(header) != len(DetailedHeader) {
		return nil, fmt.Errorf("report: header has %d columns, want %d", len(header), len(DetailedHeader))
	}
	for i, h := range header {
		if h != DetailedHeader[i] {
			return nil, fmt.Errorf("report: column %d is %q, want %q", i, h, DetailedHeader[i])
		}
	}

	var out []driver.Record
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("report: line %d: %w", line+1, err)
		}
		line++
		row, err := parseDetailedRow(rec)
		if err != nil {
			return nil, fmt.Errorf("report: line %d: %w", line, err)
		}
		out = append(out, row)
	}
	return out, nil
}

func parseDetailedRow(rec []string) (driver.Record, error) {
	var r driver.Record
	p := &rowParser{rec: rec}

	r.ID = p.intField("id")
	r.InteractionID = p.intField("interaction")
	r.VizName = p.str()
	r.Driver = p.str()
	r.DataSize = p.str()
	r.ThinkTimeMS = p.floatField("think_time")
	r.TimeReqMS = p.floatField("time_req")
	r.Workflow = p.str()
	r.StartTime = time.UnixMilli(int64(p.floatField("start_time")))
	r.EndTime = time.UnixMilli(int64(p.floatField("end_time")))

	var m metrics.QueryMetrics
	m.TRViolated = p.boolField("tr_violated")
	r.BinDims = p.intField("bin_dims")
	r.BinningType = p.str()
	r.AggType = p.str()
	m.OutOfMargin = p.intField("bins_ofm")
	m.BinsDelivered = p.intField("bins_delivered")
	m.BinsInGT = p.intField("bins_in_gt")
	m.RelErrAvg = p.nanFloat()
	m.RelErrStdev = p.nanFloat()
	m.MissingBins = p.nanFloat()
	m.CosineDistance = p.nanFloat()
	m.MarginAvg = p.nanFloat()
	m.MarginStdev = p.nanFloat()
	m.Bias = p.nanFloat()
	m.SMAPE = p.nanFloat()
	r.ConcurrentQs = p.intField("concurrent_queries")
	r.User = p.intField("user")
	r.Users = p.intField("users")
	m.StalenessRows = -1
	if s := p.str(); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			p.err = fmt.Errorf("field staleness_rows: %w", err)
		} else {
			m.StalenessRows = v
		}
	}
	r.SQL = p.str()
	m.HasResult = !m.TRViolated
	r.Metrics = m
	r.WorkflowType = workflowTypeOf(r.Workflow)

	if p.err != nil {
		return r, p.err
	}
	return r, nil
}

// workflowTypeOf recovers the type from the generated workflow naming
// convention ("<type>-NN"); hand-written workflows fall back to Mixed.
func workflowTypeOf(name string) workflow.Type {
	for _, t := range append(append([]workflow.Type(nil), workflow.AllTypes...), workflow.Mixed) {
		prefix := string(t) + "-"
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			return t
		}
	}
	return workflow.Mixed
}

// rowParser consumes fields left to right, collecting the first error.
type rowParser struct {
	rec []string
	pos int
	err error
}

func (p *rowParser) str() string {
	s := p.rec[p.pos]
	p.pos++
	return s
}

func (p *rowParser) intField(name string) int {
	s := p.str()
	if p.err != nil || s == "" {
		return 0
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		p.err = fmt.Errorf("field %s: %w", name, err)
	}
	return v
}

func (p *rowParser) floatField(name string) float64 {
	s := p.str()
	if p.err != nil || s == "" {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.err = fmt.Errorf("field %s: %w", name, err)
	}
	return v
}

func (p *rowParser) nanFloat() float64 {
	s := p.str()
	if s == "" {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.err = err
		return math.NaN()
	}
	return v
}

func (p *rowParser) boolField(name string) bool {
	s := p.str()
	if p.err != nil {
		return false
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		p.err = fmt.Errorf("field %s: %w", name, err)
	}
	return v
}
