// Shared command-line interface for every benchmark binary.
//
// Replaces the per-bench hardcoded replication counts and seeds:
//   --reps N        replications per cell (default is per-bench)
//   --seeds a,b,c   explicit seed list (overrides --reps/--seed-base)
//   --seed-base S   seed for replication 0; replication i uses S+i
//   --jobs N        worker threads (default: hardware_concurrency)
//   --shards N      sharded-kernel worker threads (0 = hardware_concurrency)
//   --flows N       concurrent flows via the flyweight FlowEngine (0 = legacy
//                   per-object senders)
//   --load-curve C  arrival-rate curve for --flows: const | diurnal | flash
//   --churn R[,M]   node crash-recover churn at R cycles/sec, spacing model
//                   M: poisson | periodic (0 = no churn)
//   --json-out P    report path (default BENCH_<name>.json in the cwd)
//   --no-json       skip writing the report
//   --quick         reduced durations/replications for CI smoke runs
//   --record P      write a flight-recorder trace of one trial to P
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace son::exp {

struct Options {
  std::string bench;  // short name; default report path is BENCH_<bench>.json
  int reps = 1;
  unsigned jobs = 0;  // 0 = hardware_concurrency
  /// Sharded-kernel worker threads per trial (the --shards flag). 1 = run the
  /// sharded kernel single-threaded; 0 = one worker per hardware thread.
  /// Results are worker-count-invariant — this is purely a wall-clock knob.
  int shards = 1;
  /// Concurrent flows per trial, driven by client::FlowEngine flow tables
  /// (the --flows flag). 0 = the bench's own flow counts.
  std::int64_t flows = 0;
  /// Arrival-rate curve for FlowEngine workloads (the --load-curve flag):
  /// "const", "diurnal" or "flash". Validated at parse time.
  std::string load_curve = "const";
  /// Node crash-recover cycles per second (the --churn flag). 0 = the
  /// bench's own churn defaults (static membership for most benches).
  double churn_rate = 0.0;
  /// Inter-event spacing model for --churn: "poisson" or "periodic".
  /// Validated at parse time; overlay::churn_model_from_string decodes it.
  std::string churn_model = "poisson";
  std::uint64_t seed_base = 1;
  std::vector<std::uint64_t> seeds;  // explicit --seeds list, if given
  bool quick = false;
  bool write_json = true;
  std::string json_out;  // empty = default path
  /// Non-empty: the bench should record one representative trial with the
  /// flight recorder and write the trace here (inspect with tools/son-trace).
  std::string record_out;

  /// Parses and REMOVES recognized flags from argv (unrecognized arguments
  /// stay, so google-benchmark flags etc. pass through). Prints usage and
  /// exits on --help or malformed values.
  [[nodiscard]] static Options parse(int& argc, char** argv, std::string bench_name,
                                     int default_reps, std::uint64_t default_seed_base);

  /// Seed for replication `rep`: the explicit list if given (extended from
  /// seed_base past its end), else seed_base + rep.
  [[nodiscard]] std::uint64_t seed_for(int rep) const;

  /// Replications per cell: the explicit seed list's size if given, else reps.
  [[nodiscard]] int effective_reps() const;

  /// `shards` with 0 resolved to hardware_concurrency (min 1).
  [[nodiscard]] unsigned resolved_shards() const;

  [[nodiscard]] std::string json_path() const;
};

}  // namespace son::exp
