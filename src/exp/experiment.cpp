#include "exp/experiment.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "exp/runner.hpp"
#include "obs/counters.hpp"

namespace son::exp {

const CellAggregate& Report::cell(const std::string& label) const {
  for (const auto& c : cells_) {
    if (c.label == label) return c.aggregate;
  }
  std::fprintf(stderr, "Report: no cell labelled '%s'\n", label.c_str());
  std::abort();
}

Json Report::results_doc() const {
  Json doc = Json::object();
  doc["bench"] = bench_;
  doc["schema_version"] = 1;
  doc["options"] = options_;
  Json cells = Json::array();
  for (const auto& c : cells_) {
    Json jc = Json::object();
    jc["label"] = c.label;
    jc["params"] = c.params;
    jc["reps"] = c.aggregate.trials();
    Json seeds = Json::array();
    for (const auto s : c.seeds) seeds.push_back(s);
    jc["seeds"] = std::move(seeds);
    jc["metrics"] = c.aggregate.metrics_json();
    cells.push_back(std::move(jc));
  }
  doc["results"]["cells"] = std::move(cells);
  return doc;
}

std::string Report::results_json() const { return results_doc().dump(); }

std::string Report::full_json() const {
  Json doc = results_doc();
  Json& run = doc["run"];
  run["jobs"] = static_cast<std::uint64_t>(jobs_);
  run["hardware_concurrency"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  run["trials"] = total_trials_;
  run["wall_clock_s"] = wall_clock_s_;
  for (const auto& c : cells_) {
    Json t = c.aggregate.timings_json();
    if (!t.is_null()) run["timings"][c.label] = std::move(t);
  }
  return doc.dump();
}

bool Report::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = full_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

void Experiment::add_cell(std::string label, Json params, TrialFn fn, int reps_override) {
  cells_.push_back(CellDef{std::move(label), std::move(params), std::move(fn),
                           reps_override > 0 ? reps_override : 0});
}

Report Experiment::run() const {
  std::vector<Trial> trials;
  std::vector<std::size_t> cell_of_trial;
  Report report;
  report.bench_ = opts_.bench;

  Json jopts = Json::object();
  jopts["reps"] = static_cast<std::int64_t>(opts_.effective_reps());
  jopts["quick"] = opts_.quick;
  jopts["shards"] = static_cast<std::int64_t>(opts_.shards);
  jopts["flows"] = opts_.flows;
  jopts["load_curve"] = opts_.load_curve;
  jopts["seed_base"] = opts_.seed_base;
  Json jseeds = Json::array();
  for (const auto s : opts_.seeds) jseeds.push_back(s);
  jopts["seeds"] = std::move(jseeds);
  report.options_ = std::move(jopts);

  for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
    const auto& def = cells_[ci];
    const int reps = def.reps > 0 ? def.reps : opts_.effective_reps();
    Report::Cell cell;
    cell.label = def.label;
    cell.params = def.params;
    for (int rep = 0; rep < reps; ++rep) {
      const std::uint64_t seed = opts_.seed_for(rep);
      cell.seeds.push_back(seed);
      // Every trial runs under its own counter registry (thread-local, so
      // parallel trials never share one); the snapshot is folded into the
      // Metrics in name order, which keeps reports identical at any --jobs.
      trials.push_back(Trial{def.label, [fn = def.fn, seed]() {
                               obs::CounterRegistry registry;
                               obs::ScopedCounterRegistry scope{registry};
                               Metrics m = fn(seed);
                               for (const auto& [name, v] : registry.entries()) {
                                 m.counter(name, v);
                               }
                               return m;
                             }});
      cell_of_trial.push_back(ci);
    }
    report.cells_.push_back(std::move(cell));
  }

  ParallelRunner runner{opts_.jobs};
  if (isatty(2) != 0) {
    runner.set_progress([](std::size_t done, std::size_t total, const std::string& label) {
      std::fprintf(stderr, "\r  [%zu/%zu] %-40.40s", done, total, label.c_str());
      if (done == total) std::fprintf(stderr, "\n");
    });
  }

  // son-analyze: allow(wall-clock) "wall_clock_s lands in the report's machine-dependent run section, never in results"
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Metrics> results = runner.run(trials);
  // son-analyze: allow(wall-clock) "see above; timing the runner, not simulated time"
  const auto t1 = std::chrono::steady_clock::now();

  for (std::size_t i = 0; i < results.size(); ++i) {
    report.cells_[cell_of_trial[i]].aggregate.absorb(results[i]);
  }
  report.wall_clock_s_ = std::chrono::duration<double>(t1 - t0).count();
  report.jobs_ = runner.jobs();
  report.total_trials_ = trials.size();
  return report;
}

}  // namespace son::exp
