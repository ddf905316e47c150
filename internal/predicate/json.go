package predicate

import (
	"encoding/json"
	"fmt"
)

// JSON encoding for schemas. Column kinds serialize as the strings "real",
// "integer", and "categorical" (matching ColumnKind.String), so schema
// documents exchanged over the wire — e.g. by the quickseld HTTP API — are
// self-describing rather than bare enum integers. Decoding a Schema
// re-validates it through NewSchema, so a schema that arrives via JSON obeys
// the same invariants as one built in-process.

// MarshalJSON renders the kind as its string name.
func (k ColumnKind) MarshalJSON() ([]byte, error) {
	switch k {
	case Real, Integer, Categorical:
		return json.Marshal(k.String())
	default:
		return nil, fmt.Errorf("predicate: cannot marshal unknown ColumnKind(%d)", int(k))
	}
}

// UnmarshalJSON accepts the string names produced by MarshalJSON.
func (k *ColumnKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("predicate: column kind must be a string: %w", err)
	}
	switch s {
	case "real":
		*k = Real
	case "integer":
		*k = Integer
	case "categorical":
		*k = Categorical
	default:
		return fmt.Errorf("predicate: unknown column kind %q (want real, integer, or categorical)", s)
	}
	return nil
}

// UnmarshalJSON decodes and validates a schema; malformed schemas (empty,
// inverted ranges, non-integral discrete bounds) are rejected with the same
// errors as NewSchema.
func (s *Schema) UnmarshalJSON(data []byte) error {
	var raw struct {
		Cols []Column `json:"columns"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	checked, err := NewSchema(raw.Cols...)
	if err != nil {
		return err
	}
	*s = *checked
	return nil
}
