#ifndef ODF_UTIL_ENV_CONFIG_H_
#define ODF_UTIL_ENV_CONFIG_H_

#include <cstdint>
#include <string>

namespace odf {

// Small helpers for environment-driven experiment configuration. Benchmarks
// and examples use these so that their scale can be adjusted without
// recompiling (e.g. `ODF_SCALE=paper ./bench_table2_overall`).
//
// Library-level knobs read through these helpers:
//   ODF_THREADS=<n>  size of the global compute thread pool (ThreadPool::
//                    Global()). Defaults to hardware concurrency; 1 runs
//                    every kernel serially. Numeric results are independent
//                    of the value.
//   ODF_METRICS=1    enable the process-wide metrics registry (kernel timing
//                    histograms, pool/autograd counters, trainer gauges;
//                    util/metrics.h). Off by default: the disabled check is
//                    one relaxed atomic load per instrumentation site. Also
//                    turns on the trainer's default per-epoch telemetry
//                    JSONL when checkpointing (docs/observability.md).
//   ODF_TRACE=1      capture a whole-process Chrome-trace (Perfetto) span
//                    timeline (util/trace.h), flushed at exit to
//                    ODF_TRACE_PATH (default odf_trace.json). Off by
//                    default with the same one-load disabled cost.
//
// Serving front-end knobs (serve/service.h, docs/serving.md), read once by
// ServeConfig::FromEnv() at service construction:
//   ODF_SERVE_MAX_BATCH=<n>        largest number of distinct samples the
//                    worker coalesces into one compiled-plan execution
//                    (default 8; must not exceed the batch capacity the
//                    plan was compiled for).
//   ODF_SERVE_BATCH_WINDOW_US=<n>  how long the worker waits for more
//                    queries after the first one before cutting a batch —
//                    the added-latency budget (default 200; 0 disables
//                    coalescing and serves each query alone).
//   ODF_SERVE_CACHE=0              disable the current-interval forecast
//                    cache (on by default); every ForecastCurrent then
//                    runs the plan.
//   ODF_SERVE_PRECISION=fp32|fp64  arithmetic width the service serves at
//                    (default fp32 — the bit-identical substrate width).
//                    fp64 activates the widened reference plan as soon as
//                    one is registered via ForecastService::AddPlan. The
//                    interval cache is keyed on (interval, precision), so
//                    flipping this mid-run never serves a stale
//                    other-precision histogram (docs/serving.md
//                    "Precision").
//   ODF_SERVE_PRECISION_CHECK=1    run every batch through BOTH registered
//                    plans and gate on the per-query KL/JS/EMD deltas
//                    (serve/service.h kPrecision*Tolerance); rejected
//                    batches are served from the fp64 plan. Doubles the
//                    serving cost — a validation mode, off by default.
//
// Sharded scale-out knobs (src/shard/, docs/sharding.md):
//   ODF_SHARDS=<n>   default shard count a ShardedModelConfig starts from
//                    when the caller doesn't set one (default 4; always
//                    clamped to [1, num_regions] at partition time).
//
// Stress-scenario harness knobs (docs/scenarios.md), read by
// `production_pipeline --scenarios [--smoke]`:
//   ODF_SCENARIO_SEED=<n>    master seed for the sweep — trip generation,
//                    injector randomness, and model init all derive from
//                    it, so one value pins the whole BENCH_scenarios.json
//                    bit-for-bit (default 7; the committed table uses it).
//   ODF_SCENARIO_EPOCHS=<n>  training epochs for each learned model in
//                    the sweep (default 8, or 2 with --smoke).
//   ODF_SCENARIO_MODELS=<csv> comma-separated table columns, e.g.
//                    "AF,AFD,BF,NH,VAR" (the default; --smoke uses
//                    "AF,NH").
//                    Accepted names: AF, BF, MR, FC/RNN, GP, NH, VAR, and
//                    AFD (the dynamic-graph AF: same training as AF, but
//                    the harness rebuilds its GCGRU operators per interval
//                    from Scenario::ProximityMatrixAt).
//
// Graph-operator knobs (docs/graph_operators.md):
//   ODF_GRAPH_OP=cheb|diffusion|adaptive  default operator family of the
//                    AF's forecasting-stage graph convolutions when the
//                    caller doesn't set AdvancedFrameworkConfig::graph_op:
//                    the paper's Chebyshev basis over L̂ (default), DCRNN
//                    dual-direction diffusion, or ODCRN learned adaptive
//                    adjacency softmax(relu(E_o·E_dᵀ)).
//   ODF_GRAPHOPS_SEED=<n>    master seed of `bench_graphops` (default 7);
//                    one value pins BENCH_graphops.json bit-for-bit at any
//                    ODF_THREADS.
//   ODF_GRAPHOPS_EPOCHS=<n>  training epochs per operator family in the
//                    sweep (default 8, or 2 with --smoke).
//   ODF_GRAPHOPS_MODES=<csv> operator families to sweep, a subset of
//                    "cheb,cheb_corr,diffusion,adaptive" that must include
//                    cheb (it anchors the static-vs-dynamic comparison).

/// Returns the value of environment variable `name`, or `fallback` if unset.
std::string GetEnvString(const char* name, const std::string& fallback);

/// Returns `name` parsed as int64, or `fallback` if unset/unparseable.
int64_t GetEnvInt(const char* name, int64_t fallback);

/// Returns `name` parsed as double, or `fallback` if unset/unparseable.
double GetEnvDouble(const char* name, double fallback);

/// Returns true when `name` is set to a truthy value ("1", "true", "on").
bool GetEnvBool(const char* name, bool fallback);

}  // namespace odf

#endif  // ODF_UTIL_ENV_CONFIG_H_
