#!/usr/bin/env bash
# Tier-1 verification: full build + ctest, then the concurrency-
# sensitive tests (scheduler / executor / multiband) rebuilt and run
# under ThreadSanitizer in a separate build tree.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "== tier-1: crash-recovery lane (journal + tile-store kill points) =="
# The chaos audit: 200 seeded server crash/restart cycles against one
# journal directory, the recovery fuzzers (truncation at every offset,
# random bit flips), and the tile store's byte-budget sweep through
# every tile-page write. Seeds are fixed inside the tests, so a
# failure here reproduces deterministically.
cmake --build build -j "${JOBS}" \
      --target journal_test journal_killpoint_test journal_compaction_test \
               tile_store_test tile_store_retention_test
(cd build && \
 ctest --output-on-failure -j "${JOBS}" \
       -R '^(JournalTest|JournalRecoveryTest|JournalFaultTest|JournalFuzzTest|DeadLetterStoreTest|JournalKillPointTest|JournalCompactionTest|TileStoreTest|TileStoreRecoveryTest|TileStoreKillPointTest|TileStoreRetentionTest)')

echo "== tier-1: disk-pressure chaos lane (ENOSPC incidents + governor self-heal) =="
# 200 seeded crash/restart cycles where the injected failures are
# space failures: the disk fills mid-record, the journal NACKs the
# producer at admission, the governor degrades, space frees, and the
# SAME incarnation must heal end to end with zero lost acked records
# (exactly-once delivery + contiguous journal audit). Plus the
# governor state machine, the byte-budget/compaction suites, and the
# live-server ENOSPC e2e (HEALTH/ISTATS DEGRADED, producer NACKs,
# live queries and stored reads keep serving, self-heal).
cmake --build build -j "${JOBS}" \
      --target storage_governor_test disk_pressure_killpoint_test \
               disk_pressure_e2e_test
(cd build && \
 ctest --output-on-failure -j "${JOBS}" \
       -R '^(StorageGovernorTest|DiskPressureKillPointTest|DiskPressureE2eTest)')

echo "== tier-1: TSan lane (scheduler/supervision/server/executor/multiband/net/ingest/obs/shared plans) =="
cmake -B build-tsan -S . -DGEOSTREAMS_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j "${JOBS}" \
      --target scheduler_test supervisor_test failure_test server_test \
               executor_test multiband_test net_test ingest_test obs_test \
               kernels_test journal_test journal_killpoint_test \
               tile_store_test tile_store_retention_test \
               tile_store_churn_test storage_governor_test catchup_test \
               shared_plan_test
(cd build-tsan && \
 ctest --output-on-failure -j "${JOBS}" \
       -R '^(SchedulerTest|SupervisorTest|SchedulerSupervisionTest|FaultInjectorTest|FaultInjectionE2eTest|FailureTest|DsmsServerTest|StageRunnerTest|BoundedEventQueueTest|PipelineTest|MultibandTest|WireProtocolTest|FrameDecoderTest|CommandDispatchTest|ClientSessionTest|NetServerE2eTest|IngestChecksumTest|ServerDlqTest|DeadLetterQueueTest|GeoStreamsClientTest|SocketUtilTest|IngestWireTest|IngestSessionTest|FlakySocketTest|ProducerE2eTest|ProducerAuthTest|JournalTest|JournalRecoveryTest|JournalFaultTest|DeadLetterStoreTest|CounterTest|MetricHistogramTest|MetricsRegistryTest|TraceTest|TraceRingTest|ObsIngestTest|ObsE2eTest|ObsSummaryTest|ObserveE2eStageTest|EventLogTest|LatencyPlaneE2eTest|KernelParityTest|FilterBatchTest|OperatorParityTest|SimdDispatchTest|TileStoreTest|TileStoreRecoveryTest|TileStoreRetentionTest|TileStoreChurnTest|StorageGovernorTest|CatchUpTest|Workers/SharedPlanDifferentialTest|SharedPlanTest|SharedPlanLifecycleTest)')

echo "== tier-1: ASan+UBSan lane (same concurrency/supervision set) =="
cmake -B build-asan -S . "-DGEOSTREAMS_SANITIZE=address,undefined" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "${JOBS}" \
      --target scheduler_test supervisor_test failure_test server_test \
               executor_test multiband_test net_test ingest_test obs_test \
               kernels_test journal_test journal_killpoint_test \
               journal_compaction_test tile_store_test \
               tile_store_retention_test storage_governor_test \
               disk_pressure_e2e_test catchup_test shared_plan_test
(cd build-asan && \
 ctest --output-on-failure -j "${JOBS}" \
       -R '^(SchedulerTest|SupervisorTest|SchedulerSupervisionTest|FaultInjectorTest|FaultInjectionE2eTest|FailureTest|DsmsServerTest|StageRunnerTest|BoundedEventQueueTest|PipelineTest|MultibandTest|WireProtocolTest|FrameDecoderTest|CommandDispatchTest|ClientSessionTest|NetServerE2eTest|IngestChecksumTest|ServerDlqTest|DeadLetterQueueTest|GeoStreamsClientTest|SocketUtilTest|IngestWireTest|IngestSessionTest|FlakySocketTest|ProducerE2eTest|ProducerAuthTest|JournalTest|JournalRecoveryTest|JournalFaultTest|DeadLetterStoreTest|CounterTest|MetricHistogramTest|MetricsRegistryTest|TraceTest|TraceRingTest|ObsIngestTest|ObsE2eTest|ObsSummaryTest|ObserveE2eStageTest|EventLogTest|LatencyPlaneE2eTest|KernelParityTest|FilterBatchTest|OperatorParityTest|SimdDispatchTest|TileStoreTest|TileStoreRecoveryTest|TileStoreRetentionTest|StorageGovernorTest|JournalCompactionTest|DiskPressureE2eTest|CatchUpTest|Workers/SharedPlanDifferentialTest|SharedPlanTest|SharedPlanLifecycleTest)')

echo "== tier-1: scalar-only lane (GEOSTREAMS_SIMD=OFF) =="
# The portable fallback must pass the same kernel/operator suites it
# shares with the AVX2 build (non-x86 targets compile exactly this).
cmake -B build-scalar -S . -DGEOSTREAMS_SIMD=OFF >/dev/null
cmake --build build-scalar -j "${JOBS}" \
      --target kernels_test restriction_ops_test transform_ops_test \
               compose_test planner_test
(cd build-scalar && \
 ctest --output-on-failure -j "${JOBS}" \
       -R '^(KernelParityTest|FilterBatchTest|OperatorParityTest|SimdDispatchTest|SpatialRestrictionTest|TemporalRestrictionTest|ValueRestrictionTest|RestrictionsTest|ValueTransformTest|StretchTransformTest|AffineTest|MagnifyTest|ReduceTest|ComposeTest|NdviMacroTest|MacroOpsTest|PlannerTest)')

echo "== tier-1: metrics exposition lint (live /metrics scrape) =="
# A malformed exposition fails silently (Prometheus drops the whole
# scrape), so a strict parse of a real GET /metrics body — duplicate
# series, label escaping, le ordering, bucket monotonicity, exemplar
# syntax — gates the build.
(cd build && \
 ctest --output-on-failure \
       -R '^NetServerE2eTest.MetricsExpositionLintPasses$')

echo "== tier-1: tracing overhead microbench (sampling off vs on) =="
# Informational: the sample_every=0 row must sit within run-to-run
# noise of the traced rows (the disabled path is one thread-local
# load + branch per operator); the exemplar/event-log rows price the
# latency plane's primitives.
cmake --build build -j "${JOBS}" --target bench_tracing
./build/bench/bench_tracing --benchmark_min_time=0.2 \
    --benchmark_filter='BM_Tracing_(EndToEnd|UntracedBranch|HistogramObserve|HistogramObserveExemplar|EventLogAppend)' || true

echo "tier-1 OK"
