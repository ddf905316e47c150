package workload

import (
	"fmt"
	"math"
	"math/rand"

	"quicksel/internal/predicate"
	"quicksel/internal/table"
)

// DMVConfig parameterizes the synthetic stand-in for the NY State vehicle
// registration dataset. The paper's DMV experiments issue predicates on
// three attributes: model_year, registration_date, and expiration_date.
// The generator reproduces the structure that matters for selectivity
// estimation: skew toward recent model years, strong correlation between
// model year and registration date, and a near-functional dependency
// between registration and expiration dates.
type DMVConfig struct {
	Rows int
	Seed int64
}

// Date arithmetic: dates are stored as integer day offsets from 2000-01-01.
const (
	dmvMinYear   = 1960
	dmvMaxYear   = 2020
	dmvMaxRegDay = 7300 // ≈ 20 years of registrations
	dmvExpSlack  = 1095 // expirations up to 3 years past the last registration
)

// NewDMV builds the synthetic DMV dataset.
func NewDMV(cfg DMVConfig) (*Dataset, error) {
	if cfg.Rows < 0 {
		return nil, fmt.Errorf("workload: negative Rows %d", cfg.Rows)
	}
	schema, err := predicate.NewSchema(
		predicate.Column{Name: "model_year", Kind: predicate.Integer, Min: dmvMinYear, Max: dmvMaxYear},
		predicate.Column{Name: "registration_date", Kind: predicate.Integer, Min: 0, Max: dmvMaxRegDay},
		predicate.Column{Name: "expiration_date", Kind: predicate.Integer, Min: 0, Max: dmvMaxRegDay + dmvExpSlack},
	)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Name: "dmv", Schema: schema, Table: table.New(schema)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	batch := make([][]float64, 0, 1024)
	for r := 0; r < cfg.Rows; r++ {
		// Model years skew heavily toward recent vehicles: exponential decay
		// with ~8-year scale back from the max year.
		age := rng.ExpFloat64() * 8
		if age > dmvMaxYear-dmvMinYear {
			age = float64(dmvMaxYear - dmvMinYear)
		}
		year := math.Floor(float64(dmvMaxYear) - age)

		// Registration clusters a few years after the model year (resales
		// spread the tail), clipped to the observed registration window.
		yearDay := (year - 2000) * 365
		reg := yearDay + math.Abs(rng.NormFloat64())*900 + rng.Float64()*365
		if reg < 0 {
			reg = rng.Float64() * 2000 // pre-2000 vehicles registered in the window
		}
		if reg > dmvMaxRegDay {
			reg = float64(dmvMaxRegDay)
		}
		reg = math.Floor(reg)

		// Expirations are 1 or 2 years after registration with small jitter.
		term := 365.0
		if rng.Float64() < 0.5 {
			term = 730
		}
		exp := reg + term + math.Floor(rng.Float64()*30)
		if exp > dmvMaxRegDay+dmvExpSlack {
			exp = dmvMaxRegDay + dmvExpSlack
		}

		batch = append(batch, []float64{year, reg, math.Floor(exp)})
		if len(batch) == cap(batch) {
			if err := ds.Table.Insert(batch...); err != nil {
				return nil, err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := ds.Table.Insert(batch...); err != nil {
			return nil, err
		}
	}
	ds.Table.ResetModified()
	return ds, nil
}
