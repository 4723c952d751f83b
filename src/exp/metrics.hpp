// Per-trial metric bags and their cross-trial aggregates.
//
// A Trial produces one Metrics; the runner hands all of a cell's Metrics to a
// CellAggregate, which folds them together in trial-index order via the
// merge() support on sim::OnlineStats / sim::SampleSet / sim::Histogram, so
// the aggregate is independent of which thread ran which trial.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "exp/json.hpp"
#include "sim/stats.hpp"

namespace son::exp {

class Metrics {
 public:
  /// One value per trial; aggregated as OnlineStats across trials.
  void scalar(const std::string& name, double v) { scalars_[name] = v; }

  /// Raw per-event samples (e.g. per-packet latency); pooled across trials.
  sim::SampleSet& samples(const std::string& name) { return samples_[name]; }

  /// Fixed-geometry histogram; bin counts summed across trials.
  sim::Histogram& hist(const std::string& name, double lo, double hi, std::size_t bins) {
    return hists_.try_emplace(name, lo, hi, bins).first->second;
  }

  /// Machine-dependent measurement (real CPU/wall time). Kept out of the
  /// deterministic results section of the report.
  void timing(const std::string& name, double v) { timings_[name] = v; }

  /// One observability-counter value for this trial (monotonic; exact
  /// integers). Experiment::run snapshots the trial's obs::CounterRegistry
  /// in here automatically, so benches rarely call this directly.
  void counter(const std::string& name, std::uint64_t v) { counters_[name] = v; }

  [[nodiscard]] const std::map<std::string, double>& scalars() const { return scalars_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, sim::SampleSet>& sample_sets() const {
    return samples_;
  }
  [[nodiscard]] const std::map<std::string, sim::Histogram>& hists() const { return hists_; }
  [[nodiscard]] const std::map<std::string, double>& timings() const { return timings_; }

 private:
  std::map<std::string, double> scalars_;
  std::map<std::string, sim::SampleSet> samples_;
  std::map<std::string, sim::Histogram> hists_;
  std::map<std::string, double> timings_;
  std::map<std::string, std::uint64_t> counters_;
};

/// All trials of one parameter cell, folded together.
class CellAggregate {
 public:
  void absorb(const Metrics& m);

  [[nodiscard]] std::uint64_t trials() const { return trials_; }

  /// Cross-trial stats of a scalar; zero-valued stats if never recorded.
  [[nodiscard]] const sim::OnlineStats& scalar(const std::string& name) const;
  [[nodiscard]] double scalar_mean(const std::string& name) const { return scalar(name).mean(); }

  /// Cross-trial stats of a timing; zero-valued stats if never recorded.
  [[nodiscard]] const sim::OnlineStats& timing(const std::string& name) const;
  [[nodiscard]] double timing_mean(const std::string& name) const { return timing(name).mean(); }

  /// Pooled samples; an empty set if never recorded.
  [[nodiscard]] const sim::SampleSet& samples(const std::string& name) const;

  /// Merged histogram, or nullptr if never recorded.
  [[nodiscard]] const sim::Histogram* hist(const std::string& name) const;

  /// Exact-integer cross-trial fold of one counter (sum/min/max are computed
  /// in uint64, never through floating point — counter sums stay exact and
  /// order-independent).
  struct CounterAgg {
    std::uint64_t n = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
  };
  /// Aggregate of a counter; zero-valued if never recorded.
  [[nodiscard]] CounterAgg counter(const std::string& name) const;

  /// Deterministic part of the aggregate (scalars + samples + histograms).
  [[nodiscard]] Json metrics_json() const;
  /// Machine-dependent part (timings), or a null Json if there are none.
  [[nodiscard]] Json timings_json() const;

 private:
  std::uint64_t trials_ = 0;
  std::map<std::string, sim::OnlineStats> scalars_;
  std::map<std::string, sim::SampleSet> samples_;
  std::map<std::string, sim::Histogram> hists_;
  std::map<std::string, sim::OnlineStats> timings_;
  std::map<std::string, CounterAgg> counters_;
};

}  // namespace son::exp
