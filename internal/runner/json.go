package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/treadmarks"
)

// SchemaVersion identifies the JSON layout emitted by WriteJSON. Bump it on
// any incompatible change; consumers check it before trusting field names.
const SchemaVersion = "dsmbench-results/v1"

// JSONSpec is the serialized form of a RunSpec with options resolved to
// their effective values (no pointers, no nils). Interconnect is present
// only for non-Memory-Channel runs and TreadMarks only for non-zero
// TreadMarks options, so documents produced by the paper's configurations
// serialize exactly as they did before either became part of the spec.
type JSONSpec struct {
	App          string             `json:"app"`
	Variant      string             `json:"variant"`
	Procs        int                `json:"procs"`
	Nodes        int                `json:"nodes,omitempty"`
	PPN          int                `json:"ppn,omitempty"`
	Size         apps.Size          `json:"size"`
	Options      resolvedOpts       `json:"options"`
	Interconnect *interconnect.Spec `json:"interconnect,omitempty"`
	TreadMarks   *treadmarks.Config `json:"treadmarks,omitempty"`
}

// JSONResult is one executed spec with its outcome. Exactly one of
// Infeasible, Error, or Result describes the outcome.
type JSONResult struct {
	Spec       JSONSpec     `json:"spec"`
	Key        string       `json:"key"`
	Infeasible bool         `json:"infeasible,omitempty"`
	Error      string       `json:"error,omitempty"`
	Result     *core.Result `json:"result,omitempty"`
}

// JSONDocument is the top-level structure WriteJSON emits.
type JSONDocument struct {
	Schema  string       `json:"schema"`
	Results []JSONResult `json:"results"`
}

// Document converts the result set to its serializable form, ordered by
// canonical key so emission is stable across Jobs settings and plan order.
func (rs *ResultSet) Document() JSONDocument {
	specs := rs.Specs()
	SortSpecs(specs)
	doc := JSONDocument{Schema: SchemaVersion}
	for _, s := range specs {
		s = s.Normalize()
		jr := JSONResult{
			Spec: JSONSpec{
				App:          s.App,
				Variant:      s.Variant,
				Procs:        s.Procs,
				Nodes:        s.Nodes,
				PPN:          s.PPN,
				Size:         s.Size,
				Options:      resolve(s.Opts),
				Interconnect: netSpec(s.Opts),
				TreadMarks:   tmkConfig(s.Opts),
			},
			Key: s.Key(),
		}
		res, err := rs.Get(s)
		switch {
		case errors.Is(err, ErrInfeasible):
			jr.Infeasible = true
		case err != nil:
			jr.Error = err.Error()
		default:
			jr.Result = res
		}
		doc.Results = append(doc.Results, jr)
	}
	return doc
}

// WriteJSON emits the result set as indented JSON.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs.Document())
}

// ReadJSON parses a document previously written by WriteJSON, rejecting
// unknown schema versions.
func ReadJSON(r io.Reader) (*JSONDocument, error) {
	var doc JSONDocument
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("runner: parsing results JSON: %w", err)
	}
	if doc.Schema != SchemaVersion {
		return nil, fmt.Errorf("runner: unsupported results schema %q (want %q)", doc.Schema, SchemaVersion)
	}
	return &doc, nil
}
