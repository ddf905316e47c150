package workload

import (
	"fmt"
	"math"
	"math/rand"

	"quicksel/internal/predicate"
	"quicksel/internal/table"
)

// InstacartConfig parameterizes the synthetic stand-in for the Instacart
// orders table. The paper's queries "ask for the reorder frequency for
// orders made during different hours of the day", with predicates on two
// attributes: order_hour_of_day and days_since_prior.
type InstacartConfig struct {
	Rows int
	Seed int64
}

// NewInstacart builds the synthetic Instacart dataset. order_hour_of_day is
// bimodal (morning and mid-afternoon peaks, as in the public dataset);
// days_since_prior has weekly humps at 7/14/21 and a large spike at 30
// (the public dataset caps the column at 30).
func NewInstacart(cfg InstacartConfig) (*Dataset, error) {
	if cfg.Rows < 0 {
		return nil, fmt.Errorf("workload: negative Rows %d", cfg.Rows)
	}
	schema, err := predicate.NewSchema(
		predicate.Column{Name: "order_hour_of_day", Kind: predicate.Integer, Min: 0, Max: 23},
		predicate.Column{Name: "days_since_prior", Kind: predicate.Integer, Min: 0, Max: 30},
	)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Name: "instacart", Schema: schema, Table: table.New(schema)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	batch := make([][]float64, 0, 1024)
	for r := 0; r < cfg.Rows; r++ {
		// Hour: mixture of two Gaussians at 10h and 15h plus a uniform floor.
		var hour float64
		switch u := rng.Float64(); {
		case u < 0.45:
			hour = 10 + 2.5*rng.NormFloat64()
		case u < 0.90:
			hour = 15 + 3.0*rng.NormFloat64()
		default:
			hour = 24 * rng.Float64()
		}
		hour = math.Floor(hour)
		if hour < 0 {
			hour = 0
		}
		if hour > 23 {
			hour = 23
		}

		// Days since prior order: weekly periodicity plus a cap spike at 30.
		var days float64
		switch u := rng.Float64(); {
		case u < 0.15:
			days = 30 // capped value spike
		case u < 0.55:
			// Weekly humps: pick a week multiple and jitter.
			week := float64(1 + rng.Intn(3)) // 7, 14, 21
			days = week*7 + 1.5*rng.NormFloat64()
		default:
			days = 30 * math.Pow(rng.Float64(), 1.5) // short-gap mass
		}
		days = math.Floor(days)
		if days < 0 {
			days = 0
		}
		if days > 30 {
			days = 30
		}

		batch = append(batch, []float64{hour, days})
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
