#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite in
# Release, again under ASan+UBSan, and once more with the span tracer
# compiled out (-DUOTS_TRACE=OFF). Run from the repo root:
#
#   scripts/check.sh            # all three presets
#   scripts/check.sh release    # just the fast one
#   scripts/check.sh asan       # just the sanitizer pass
#   scripts/check.sh trace-off  # just the tracer-compiled-out pass
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 2)
presets=("$@")
if [[ $# -eq 0 ]]; then presets=(release asan trace-off); fi

# A failing step exits the script (set -e) before its drill's `kill`; take
# any server still running down with it, or the next run cannot bind.
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

# `has PATTERN`: succeeds when stdin has a line matching PATTERN. Reads all
# of stdin first: `grep -q` exits at its first match, and under pipefail the
# writer's broken pipe (curl exit 23) then fails the check at random.
has() { grep -e "$1" > /dev/null; }

declare -A builddir=([release]=build [asan]=build-asan [trace-off]=build-trace-off)

for preset in "${presets[@]}"; do
  echo "==> preset: ${preset}"
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
  if [[ "${preset}" == "release" ]]; then
    # The loopback server suites race real sockets, the worker pool and the
    # reactor; a flake that depends on completion order or a race fails
    # here instead of landing one run in N.
    echo "==> release: loopback server suites, repeated"
    ctest --preset "${preset}" -R "uots_server_integration_test|uots_trip_server_test" \
      --repeat until-fail:10 --output-on-failure
  fi
  if [[ "${preset}" == "asan" ]]; then
    # The loopback server test drives real sockets through the epoll loop,
    # timer heap, and cross-thread completion path; run it again explicitly
    # under the sanitizers with full output so a race or leak is attributed
    # to the serving layer rather than buried in the suite summary.
    echo "==> asan: loopback server integration"
    ctest --preset "${preset}" -R uots_server_integration_test \
      --output-on-failure
    # Cache drill: the concurrent Zipf hammer races result-cache hits,
    # inserts, evictions, and tier-2 prefix publication across worker
    # threads — exactly the shared-state paths the sanitizers should sweep.
    echo "==> asan: cross-query cache hammer"
    ctest --preset "${preset}" -R "uots_cache_test|uots_batch_abort_test" \
      --output-on-failure
  fi
  if [[ "${preset}" == "release" || "${preset}" == "asan" ]]; then
    # Snapshot drill: end-to-end through the real tool — build a small
    # snapshot, check it verifies, and run the corruption/round-trip suite
    # with full output. Under asan this sweeps the mmap'd validation paths
    # for out-of-bounds reads on crafted input.
    echo "==> ${preset}: snapshot build + verify drill"
    snap="${builddir[${preset}]}/check-drill.snap"
    "${builddir[${preset}]}/apps/uots_snapshot" build --out="${snap}" \
      --gen-rows=20 --gen-cols=20 --gen-trips=400
    "${builddir[${preset}]}/apps/uots_snapshot" verify "${snap}"
    rm -f "${snap}"
    ctest --preset "${preset}" -R uots_snapshot_test --output-on-failure
    # Oracle drill: contract a network, bake the CH oracle into a v2
    # snapshot, check the checksum sweep and structural validation accept
    # it, and confirm inspect reports the oracle sections. The randomized
    # oracle-vs-Dijkstra exactness suite then runs with full output; under
    # asan this sweeps the contraction, rank-space CSR assembly, and the
    # bidirectional query kernel.
    echo "==> ${preset}: distance-oracle drill"
    osnap="${builddir[${preset}]}/check-oracle.snap"
    "${builddir[${preset}]}/apps/uots_snapshot" build --out="${osnap}" \
      --gen-rows=24 --gen-cols=24 --gen-trips=600 --oracle
    "${builddir[${preset}]}/apps/uots_snapshot" verify "${osnap}"
    "${builddir[${preset}]}/apps/uots_snapshot" inspect "${osnap}" \
      | has "distance oracle"
    rm -f "${osnap}"
    ctest --preset "${preset}" -R uots_oracle_test --output-on-failure
    # Admin-plane drill: serve a generated city with the admin listener on,
    # drive a closed loop that also scrapes server-side quantiles, then hit
    # every endpoint and check the exported metric families by name. Under
    # asan this sweeps the HTTP parser, the slow-query ring, and the
    # scrape-time render path against live traffic. SIGTERM at the end
    # proves the drain still exits cleanly with the admin plane attached.
    # (Plain backgrounding, no compound command: $! must be the server.)
    echo "==> ${preset}: admin plane smoke"
    if [[ "${preset}" == "release" ]]; then qport=7781 aport=7785
    else qport=7782 aport=7786; fi
    "${builddir[${preset}]}/apps/uots_server" --city=BRN --port="${qport}" \
      --trajectories=1500 --cache-max-entries=256 --admin-port="${aport}" &
    server_pid=$!
    sleep 1
    "${builddir[${preset}]}/apps/uots_client" --port="${qport}" \
      --trajectories=1500 --zipf=0.99 --connections=2 --requests=300 \
      --scrape-admin="${aport}"
    admin="http://127.0.0.1:${aport}"
    curl -fsS "${admin}/healthz" | has "ok"
    curl -fsS "${admin}/metrics" | has "^uots_server_requests_total 3"
    curl -fsS "${admin}/metrics" \
      | has "uots_server_request_latency_seconds_bucket"
    curl -fsS "${admin}/statusz" | has '"fingerprint"'
    curl -fsS -X POST "${admin}/tracing?sample=4" \
      | has '"sample_every":4'
    curl -fsS "${admin}/slowqueries" | has '"request_id"'
    kill -TERM "${server_pid}"
    wait "${server_pid}"
    # Live-ingest drill: serve with a compaction path, wire-ingest fresh
    # trips, verify the served answers bit-for-bit against a local cold
    # rebuild (base + ingested), fold the delta through POST /compact, and
    # re-verify against the compacted snapshot itself — the file the fold
    # wrote must both pass the standalone validator and describe exactly
    # what the swapped-in server is serving. Under asan this sweeps the
    # delta publication, the reactor-side apply, and the background
    # merge/swap against live queries.
    echo "==> ${preset}: live ingest + compaction drill"
    if [[ "${preset}" == "release" ]]; then iqport=7783 iaport=7787
    else iqport=7784 iaport=7788; fi
    isnap="${builddir[${preset}]}/check-ingest.snap"
    "${builddir[${preset}]}/apps/uots_server" --city=BRN --port="${iqport}" \
      --trajectories=1500 --admin-port="${iaport}" \
      --compact-snapshot="${isnap}" &
    ingest_pid=$!
    sleep 1
    "${builddir[${preset}]}/apps/uots_client" --port="${iqport}" \
      --trajectories=1500 --ingest=200 --num-queries=16
    iadmin="http://127.0.0.1:${iaport}"
    curl -fsS "${iadmin}/statusz" | has '"delta_trajectories":200'
    curl -fsS -X POST "${iadmin}/compact" | has '"compacting":true'
    for _ in $(seq 1 50); do
      if curl -fsS "${iadmin}/statusz" | has '"compactions":1'; then
        break
      fi
      sleep 0.2
    done
    curl -fsS "${iadmin}/statusz" | has '"compactions":1'
    curl -fsS "${iadmin}/metrics" \
      | has "^uots_server_ingest_accepted_trips_total 200"
    "${builddir[${preset}]}/apps/uots_snapshot" verify "${isnap}"
    "${builddir[${preset}]}/apps/uots_client" --port="${iqport}" \
      --dataset="${isnap}" --verify --num-queries=16
    kill -TERM "${ingest_pid}"
    wait "${ingest_pid}"
    rm -f "${isnap}"
    ctest --preset "${preset}" -R uots_ingest_test --output-on-failure
    # Trip-assembly drill: construct connected trips over the wire and
    # demand byte equality against a cold in-process planner (cache
    # default, repeat, and bypass passes), then a short closed loop that
    # folds the trip.* histogram deltas scraped from the admin plane into
    # the client report. Under asan this sweeps the harvester's expansion
    # reuse, the k-best assembly DP, and the version-tagged trip-planner
    # pool against live traffic.
    echo "==> ${preset}: trip assembly drill"
    if [[ "${preset}" == "release" ]]; then tqport=7789 taport=7791
    else tqport=7790 taport=7792; fi
    "${builddir[${preset}]}/apps/uots_server" --city=BRN --port="${tqport}" \
      --trajectories=1500 --cache-max-entries=256 --admin-port="${taport}" &
    trip_pid=$!
    sleep 1
    "${builddir[${preset}]}/apps/uots_client" --port="${tqport}" \
      --trajectories=1500 --trip --verify --num-queries=16
    "${builddir[${preset}]}/apps/uots_client" --port="${tqport}" \
      --trajectories=1500 --trip --num-queries=16 --connections=2 \
      --requests=200 --scrape-admin="${taport}" \
      --json-out="${builddir[${preset}]}/check-trip.json"
    curl -fsS "http://127.0.0.1:${taport}/metrics" \
      | has "uots_trip_plan_seconds_bucket"
    curl -fsS "http://127.0.0.1:${taport}/slowqueries" | has '"segments"'
    kill -TERM "${trip_pid}"
    wait "${trip_pid}"
    rm -f "${builddir[${preset}]}/check-trip.json"
    ctest --preset "${preset}" -R "uots_trip_test|uots_trip_server_test" \
      --output-on-failure
  fi
done
echo "==> all checks passed"
