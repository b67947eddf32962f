#!/bin/sh
# Record the federation scrape benchmark into BENCH_federate.json so the
# wire cost of fleet-scale federation is tracked across commits.
# BenchmarkFederateScrape stands up 100 simulated collector endpoints
# behind one server and measures a steady-state scrape round over the
# binary LIFP /delta protocol where a single endpoint changed. Acceptance
# floor:
#
#   - delta scraping must move >= 10x fewer body bytes per round than
#     JSON scraping would (derived field delta_bytes_reduction).
#
# wire_B/op is total response body bytes the federator fetched per scrape
# round (its own per-endpoint byte counters, i.e. what actually crossed
# the wire); json_B/op is the JSON comparator, the gzip'd /cube.json plus
# /windows.json of the round's changed endpoint fetched directly from the
# server (an ETag-conditioned JSON scraper gets 304s from the rest);
# p99_ms is the 99th-percentile per-endpoint scrape latency;
# bytes_per_sec is the steady-state delta-path wire rate implied by one
# round per interval.
#
# Usage: scripts/bench_federate.sh [output.json]
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_federate.json}"

raw=$(go test -run '^$' \
	-bench 'BenchmarkFederateScrape' \
	-benchtime 30x -count 3 ./internal/federate/)

printf '%s\n' "$raw" | awk -v go_version="$(go env GOVERSION)" '
BEGIN { n = 0 }
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	# -count N repeats each benchmark; keep the best (min ns/op) run.
	keep = 0
	if (name in best) {
		if ($3 + 0 < best[name] + 0) { keep = 1 }
	} else {
		names[n++] = name; keep = 1
		wireb[name] = "null"; jsonb[name] = "null"; p99[name] = "null"
	}
	if (keep) {
		best[name] = $3; iters[name] = $2
		for (i = 4; i < NF; i++) {
			if ($(i + 1) == "wire_B/op") wireb[name] = $i
			if ($(i + 1) == "json_B/op") jsonb[name] = $i
			if ($(i + 1) == "p99_ms") p99[name] = $i
		}
	}
}
END {
	printf "{\n  \"suite\": \"federate\",\n  \"go\": \"%s\",\n  \"endpoints\": 100,\n  \"benchmarks\": [\n", go_version
	for (i = 0; i < n; i++) {
		name = names[i]
		printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"wire_bytes_per_round\": %s, \"json_bytes_per_round\": %s, \"p99_scrape_ms\": %s}%s\n", \
			name, iters[name], best[name], wireb[name], jsonb[name], p99[name], (i < n - 1 ? "," : "")
	}
	printf "  ],\n  \"derived\": {\n"
	dns = best["BenchmarkFederateScrape/delta"]
	db = wireb["BenchmarkFederateScrape/delta"]
	jb = jsonb["BenchmarkFederateScrape/delta"]
	printf "    \"delta_bytes_reduction\": %.1f,\n", jb / db
	printf "    \"delta_wire_bytes_per_round\": %.0f,\n", db
	printf "    \"json_wire_bytes_per_round\": %.0f,\n", jb
	printf "    \"delta_bytes_per_sec\": %.0f,\n", db * 1e9 / dns
	printf "    \"delta_p99_scrape_ms\": %s\n", p99["BenchmarkFederateScrape/delta"]
	printf "  }\n}\n"
}' > "$out"

echo "wrote $out:"
cat "$out"
