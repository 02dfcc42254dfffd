#!/usr/bin/env bash
# Single entry point of the benchmark, for CI, the pipeline and people.
# Builds the runner once, then:
#
#   bash benchmark/run.sh                                  all five workloads
#   bash benchmark/run.sh -workload msg_rpc_tcp            one workload
#   bash benchmark/run.sh -workload agent_tour -trace 1    its traced pass + layer timings
#   bash benchmark/run.sh -seed 7                          all five, another seed
#   bash benchmark/run.sh -agree                           repeatability self-check
#
# With a -workload (or -agree) the arguments go straight to the runner,
# whose last output line is the result as one JSON object. Without one,
# the five workloads run one after another in separate processes with the
# remaining arguments, and their results are merged into
# benchmark/out/result.json.
set -euo pipefail
cd "$(dirname "$0")/.."

# The runner is built from the repo it measures; without the repo there
# is nothing to build, and the script must fail, not measure nothing.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $(pwd) is not the TAX repo (no go.mod, no internal/)" >&2
	exit 1
fi

# Build outputs, the compiler's cache included, stay under benchmark/out/
# so that a run reads and writes only inside its checkout.
mkdir -p benchmark/out
GOCACHE="$(pwd)/benchmark/out/gocache" go build -buildvcs=false -o benchmark/out/taxperf ./benchmark

for arg in "$@"; do
	case "$arg" in
	-workload | --workload | -workload=* | --workload=* | -agree | --agree)
		exec benchmark/out/taxperf "$@"
		;;
	esac
done

workloads=(msg_rpc_tcp relay_stream agent_tour e1_scan fleet_crawl)
status=0
for w in "${workloads[@]}"; do
	benchmark/out/taxperf -workload "$w" -json "benchmark/out/$w.json" "$@" || status=1
done
{
	printf '{'
	sep=''
	for w in "${workloads[@]}"; do
		[ -s "benchmark/out/$w.json" ] || continue
		printf '%s\n"%s": ' "$sep" "$w"
		tr -d '\n' <"benchmark/out/$w.json"
		sep=','
	done
	printf '\n}\n'
} >benchmark/out/result.json
echo "merged results: benchmark/out/result.json"
exit $status
