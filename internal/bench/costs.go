package bench

import (
	"fmt"
	"io"
	"reflect"
	"strings"

	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/runner"
)

// costRows is the cost model's provenance: a row per field of core.CostModel,
// interconnect.MCParams ("MC.") and msg.Params ("msg."; Mode is a mechanism),
// with the paper's wording ("—" where it gives none) and a tag: measured,
// reconstructed (OCR-damaged digits, read as the row says), calibrated (from
// the 233 MHz clock or instruction counts) or assumed. renderCosts reads the
// values from the presets; TestCostTableCoversModel holds the rows to the
// fields.
var costRows = map[string]struct{ prov, paper string }{
	"PageFault":             {"measured", "§4.1: the hardware fault takes 9 µs, then a local signal\n(msg.LocalSignalCost) delivers it to the user-level handler"},
	"ProtChange":            {"measured", "§4.1: 62 µs per memory protection change (mprotect)"},
	"MemAccess":             {"calibrated", "—; about two cycles of the 233 MHz Alpha"},
	"CacheMiss":             {"assumed", "—"},
	"PollCheck":             {"calibrated", "—; the three-instruction poll of Figure 2"},
	"WriteDouble":           {"calibrated", "—; the doubled-write instruction sequence of Figure 4"},
	"TwinCopy":              {"measured", "§4.1: 362 µs to twin an 8 KB page"},
	"DiffCreateMin":         {"reconstructed", "§4.1, OCR-damaged: \"29 to 53 µs per page, depending on the\nsize of the diff\""},
	"DiffCreateMax":         {"reconstructed", "§4.1: the same sentence also reads 289 to 530 µs, the likelier\nreading: a diff compares twin and page word by word (16 KB read),\nyet the smaller reading charges a seventh to a twelfth of one\n8 KB copy (TwinCopy). Adopting it moves every TreadMarks cell,\nso it is a re-pin of its own"},
	"DiffApplyBase":         {"assumed", "—"},
	"CopyPerByte":           {"assumed", "—"},
	"DirectoryModLocked":    {"measured", "§4.1: 16 µs to modify a directory entry under its lock"},
	"DirectoryMod":          {"measured", "§4.1: 5 µs to modify a directory entry without locking"},
	"LLSC":                  {"assumed", "—"},
	"HandlerWork":           {"assumed", "—"},
	"MC.Latency":            {"measured", "§3.1: 5.2 µs process-to-process write latency"},
	"MC.WriteCost":          {"assumed", "—"},
	"MC.LinkBandwidth":      {"reconstructed", "§3.1: ~30 MB/s per link, limited by the 32-bit PCI bus\n(OCR \"3 MB/s\")"},
	"MC.AggregateBandwidth": {"measured", "§3.1: ~32 MB/s aggregate with the first-generation driver"},
	"MC.InterruptSendCost":  {"measured", "§3.2, §4.1: imc_kill costs its sender 5 µs"},
	"MC.InterruptLatency":   {"measured", "§3.2, §4.1: ~1 ms end to end: the signal is filtered up only\nwhen the receiving process enters the kernel"},
	"MC.WriteBufferBytes":   {"assumed", "—"},
	"msg.IntraNodeLatency":  {"assumed", "—; same-node buffers are ordinary shared memory (§3.4)"},
	"msg.PerMessageCost":    {"assumed", "—"},
	"msg.UDPPerMessageCost": {"assumed", "—"},
	"msg.DispatchCost":      {"assumed", "—"},
	"msg.LocalSignalCost":   {"measured", "§4.1: 69 µs to deliver a signal to a process on the same node"},
}

// costs prints the cost table; it plans no run.
var costs = Section{
	Name:   "costs",
	Doc:    "print basic operation costs (§4.1)",
	Specs:  func(Options) []runner.RunSpec { return nil },
	render: renderCosts,
}

// renderCosts prints the cost table in field order: each constant's value as
// its preset defines it, its provenance, and what the paper (§3, §4.1) says.
func renderCosts(w io.Writer, _ Options, _ resultOf) {
	header(w, "Cost model: every constant a run charges, with its provenance and the paper's wording")
	const row = "  %-23s%-9s%-15s%s\n"
	fmt.Fprintf(w, row, "constant", "value", "provenance", "paper")
	presets := []struct {
		prefix string
		value  any
	}{{"", core.DefaultCosts()}, {"MC.", interconnect.MCFirstGeneration()}, {"msg.", msg.DefaultParams(msg.ModePoll)}}
	for _, p := range presets {
		v := reflect.ValueOf(p.value)
		for i := 0; i < v.NumField(); i++ {
			name := p.prefix + v.Type().Field(i).Name
			if r, ok := costRows[name]; ok {
				paper := strings.ReplaceAll(r.paper, "\n", "\n"+strings.Repeat(" ", 49))
				fmt.Fprintf(w, row, name, costValue(name, v.Field(i).Int()), r.prov, paper)
			}
		}
	}
}

// costValue formats one constant in its unit: bandwidths are bytes per
// second, sizes bytes, everything else virtual nanoseconds.
func costValue(name string, n int64) string {
	switch {
	case strings.HasSuffix(name, "Bandwidth"):
		return fmt.Sprintf("%g MB/s", float64(n)/1e6)
	case strings.HasSuffix(name, "Bytes"):
		return fmt.Sprintf("%d B", n)
	case n < 1000:
		return fmt.Sprintf("%d ns", n)
	}
	return fmt.Sprintf("%g µs", float64(n)/1000)
}
