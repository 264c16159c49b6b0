package adapt

import (
	"fmt"
	"strings"

	"numastream/internal/obs"
)

// Report is an obs self-diagnosis report with the controller's action
// log attached — what `-report` writes when `-adapt` is on.
type Report struct {
	obs.Report
	Actions []Action `json:"actions"`
}

// Report builds the combined artifact from an obs base report.
func (c *Controller) Report(base obs.Report) Report {
	return Report{Report: base, Actions: c.Actions()}
}

// Markdown renders the obs report with an adaptive-placement section
// appended.
func (r Report) Markdown() string {
	var b strings.Builder
	b.WriteString(r.Report.Markdown())
	b.WriteString("\n## Adaptive placement\n\n")
	if len(r.Actions) == 0 {
		b.WriteString("No actions: every window stayed inside the do-nothing band.\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%d actions:\n\n```\n%s```\n", len(r.Actions), FormatActions(r.Actions))
	return b.String()
}
