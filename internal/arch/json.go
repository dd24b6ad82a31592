package arch

import (
	"encoding/json"
	"fmt"
	"os"
)

// MarshalJSON-able as-is; these helpers add validation on both directions.

// ToJSON serialises the architecture (validated first).
func (a *Architecture) ToJSON() ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(a, "", "  ")
}

// FromJSON parses and validates an architecture.
func FromJSON(data []byte) (*Architecture, error) {
	var a Architecture
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("arch: parsing JSON: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

// LoadFile parses and validates an architecture from a JSON file.
func LoadFile(path string) (*Architecture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("arch: %w", err)
	}
	return FromJSON(data)
}
