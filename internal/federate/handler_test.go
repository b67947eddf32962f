package federate

import (
	"strings"
	"testing"
)

// TestFederationMetricsEscapeLabels: endpoint names are escaped as the
// Prometheus text format defines (only backslash, quote and line feed),
// so a tab is exposed raw, not as Go's \t escape.
func TestFederationMetricsEscapeLabels(t *testing.T) {
	var b strings.Builder
	writeFederationMetrics(&b, []EndpointHealth{{Name: "job\ta\"b\\c\nd"}})
	want := `{endpoint="job` + "\t" + `a\"b\\c\nd"}`
	for _, fam := range []string{MetricEndpointStale, MetricEndpointScrapes, MetricEndpointFailures,
		MetricEndpointConsecutive, MetricEndpointBytes, MetricEndpointLatency} {
		if !strings.Contains(b.String(), fam+want+" ") {
			t.Errorf("%s: no sample labelled %s in\n%s", fam, want, b.String())
		}
	}
}
