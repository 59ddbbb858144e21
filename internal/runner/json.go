package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/cashmere"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/sim"
	"repro/internal/treadmarks"
)

// SchemaVersion identifies the JSON layout emitted by WriteJSON. Bump it on
// any incompatible change; consumers check it before trusting field names.
const SchemaVersion = "dsmbench-results/v2"

// JSONSpec is the serialized form of a normalized RunSpec: its shape and
// size, then one field per option that differs from the paper's platform
// (absent otherwise), so a paper-platform record names no option at all. The
// spec's key is rendered from this form, so the two cannot disagree.
type JSONSpec struct {
	App          string                 `json:"app"`
	Variant      string                 `json:"variant"`
	Procs        int                    `json:"procs"`
	Nodes        int                    `json:"nodes,omitempty"`
	PPN          int                    `json:"ppn,omitempty"`
	Size         apps.Size              `json:"size"`
	MC           *interconnect.MCParams `json:"mc,omitempty"`
	Interconnect interconnect.Kind      `json:"interconnect,omitempty"`
	Cache        *cache.Config          `json:"cache,omitempty"`
	Cashmere     *cashmere.Config       `json:"cashmere,omitempty"`
	TreadMarks   *treadmarks.Config     `json:"treadmarks,omitempty"`
	Schedule     *sim.Schedule          `json:"schedule,omitempty"`
}

// jsonSpec returns the serialized form of the normalized spec.
func jsonSpec(s RunSpec) JSONSpec {
	s = s.Normalize()
	j := JSONSpec{
		App: s.App, Variant: s.Variant, Procs: s.Procs, Nodes: s.Nodes, PPN: s.PPN, Size: s.Size,
		MC: s.Opts.MC, Cache: s.Opts.Cache,
		Cashmere: unlessZero(s.Opts.Cashmere), TreadMarks: unlessZero(s.Opts.TreadMarks), Schedule: unlessZero(s.Opts.Schedule),
	}
	if s.Opts.Net != nil {
		j.Interconnect = s.Opts.Net.Kind
	}
	return j
}

// unlessZero returns a copy of v, or nil for the zero value (the paper's
// setting of every option that has no pointer).
func unlessZero[T comparable](v T) *T {
	if v == *new(T) {
		return nil
	}
	p := new(T)
	*p = v
	return p
}

// key renders the canonical run key: App|Variant|Procs|NxP|Size, then
// "|name=value" for each option present, in field order.
func (j JSONSpec) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d|%dx%d|%s", j.App, j.Variant, j.Procs, j.Nodes, j.PPN, j.Size)
	segment(&b, "mc", j.MC)
	if j.Interconnect != "" {
		b.WriteString("|net=" + string(j.Interconnect))
	}
	segment(&b, "cache", j.Cache)
	segment(&b, "csm", j.Cashmere)
	segment(&b, "tmk", j.TreadMarks)
	segment(&b, "sched", j.Schedule)
	return b.String()
}

func segment[T any](b *strings.Builder, name string, v *T) {
	if v != nil {
		fmt.Fprintf(b, "|%s=%+v", name, *v)
	}
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
		spec := jsonSpec(s)
		jr := JSONResult{Spec: spec, Key: spec.key()}
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
