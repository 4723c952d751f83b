#include "exp/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace son::exp {

namespace {

[[noreturn]] void usage(const Options& defaults, int code) {
  std::printf(
      "Usage: bench_%s [options]\n"
      "  --reps N        replications per cell (default %d)\n"
      "  --seeds a,b,c   explicit comma-separated seed list\n"
      "  --seed-base S   seed for replication 0 (default %llu); rep i uses S+i\n"
      "  --jobs N        worker threads (default: hardware concurrency)\n"
      "  --shards N      sharded-kernel workers per trial (default 1;\n"
      "                  0 = hardware concurrency; results never depend on N)\n"
      "  --flows N       concurrent flows per trial via the flyweight flow\n"
      "                  engine (default 0 = the bench's own flow counts)\n"
      "  --load-curve C  arrival-rate curve for --flows workloads:\n"
      "                  const | diurnal | flash (default const)\n"
      "  --churn R[,M]   node crash-recover churn: R cycles/sec with spacing\n"
      "                  model M: poisson | periodic (default 0 = bench's\n"
      "                  own churn defaults)\n"
      "  --json-out P    write the JSON report to P (default BENCH_%s.json)\n"
      "  --no-json       do not write a JSON report\n"
      "  --quick         reduced durations/replications (CI smoke mode)\n"
      "  --record P      write a flight-recorder trace of one trial to P\n"
      "  --help          this message\n",
      defaults.bench.c_str(), defaults.reps,
      static_cast<unsigned long long>(defaults.seed_base), defaults.bench.c_str());
  std::exit(code);
}

std::uint64_t parse_u64(const char* s, const Options& defaults) {
  char* end = nullptr;
  const auto v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "bad numeric argument: '%s'\n", s);
    usage(defaults, 2);
  }
  return v;
}

std::vector<std::uint64_t> parse_seed_list(const char* s, const Options& defaults) {
  std::vector<std::uint64_t> out;
  const char* p = s;
  while (*p != '\0') {
    char* end = nullptr;
    const auto v = std::strtoull(p, &end, 10);
    if (end == p) {
      std::fprintf(stderr, "bad seed list: '%s'\n", s);
      usage(defaults, 2);
    }
    out.push_back(v);
    p = end;
    if (*p == ',') ++p;
  }
  if (out.empty()) {
    std::fprintf(stderr, "empty seed list\n");
    usage(defaults, 2);
  }
  return out;
}

}  // namespace

Options Options::parse(int& argc, char** argv, std::string bench_name, int default_reps,
                       std::uint64_t default_seed_base) {
  Options o;
  o.bench = std::move(bench_name);
  o.reps = default_reps;
  o.seed_base = default_seed_base;

  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg);
        usage(o, 2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(o, 0);
    } else if (std::strcmp(arg, "--reps") == 0) {
      o.reps = static_cast<int>(parse_u64(value(), o));
      if (o.reps < 1) o.reps = 1;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      o.jobs = static_cast<unsigned>(parse_u64(value(), o));
    } else if (std::strcmp(arg, "--shards") == 0) {
      const char* v = value();
      // parse_u64 would accept "-1" (strtoull wraps negatives); reject any
      // sign explicitly — a negative worker count is always a user error.
      if (v[0] == '-' || v[0] == '+') {
        std::fprintf(stderr, "--shards must be a non-negative integer, got '%s'\n", v);
        usage(o, 2);
      }
      const std::uint64_t n = parse_u64(v, o);
      if (n > 1024) {
        std::fprintf(stderr, "--shards %llu: too many shards\n",
                     static_cast<unsigned long long>(n));
        usage(o, 2);
      }
      o.shards = static_cast<int>(n);
    } else if (std::strcmp(arg, "--flows") == 0) {
      const char* v = value();
      // Same sign discipline as --shards: strtoull would wrap "-1" silently.
      if (v[0] == '-' || v[0] == '+') {
        std::fprintf(stderr, "--flows must be a non-negative integer, got '%s'\n", v);
        usage(o, 2);
      }
      const std::uint64_t n = parse_u64(v, o);
      if (n > 100'000'000) {
        std::fprintf(stderr, "--flows %llu: too many flows\n",
                     static_cast<unsigned long long>(n));
        usage(o, 2);
      }
      o.flows = static_cast<std::int64_t>(n);
    } else if (std::strcmp(arg, "--load-curve") == 0) {
      const char* v = value();
      if (std::strcmp(v, "const") != 0 && std::strcmp(v, "diurnal") != 0 &&
          std::strcmp(v, "flash") != 0) {
        std::fprintf(stderr, "--load-curve must be const, diurnal or flash, got '%s'\n", v);
        usage(o, 2);
      }
      o.load_curve = v;
    } else if (std::strcmp(arg, "--churn") == 0) {
      const char* v = value();
      char* end = nullptr;
      const double rate = std::strtod(v, &end);
      if (end == v || rate < 0.0 || !(rate == rate) ||
          (*end != '\0' && *end != ',')) {
        std::fprintf(stderr, "--churn needs RATE[,MODEL] with RATE >= 0, got '%s'\n", v);
        usage(o, 2);
      }
      o.churn_rate = rate;
      if (*end == ',') {
        const char* model = end + 1;
        if (std::strcmp(model, "poisson") != 0 && std::strcmp(model, "periodic") != 0) {
          std::fprintf(stderr, "--churn model must be poisson or periodic, got '%s'\n",
                       model);
          usage(o, 2);
        }
        o.churn_model = model;
      }
    } else if (std::strcmp(arg, "--seed-base") == 0) {
      o.seed_base = parse_u64(value(), o);
    } else if (std::strcmp(arg, "--seeds") == 0) {
      o.seeds = parse_seed_list(value(), o);
    } else if (std::strcmp(arg, "--json-out") == 0) {
      o.json_out = value();
    } else if (std::strcmp(arg, "--record") == 0) {
      o.record_out = value();
    } else if (std::strcmp(arg, "--no-json") == 0) {
      o.write_json = false;
    } else if (std::strcmp(arg, "--quick") == 0) {
      o.quick = true;
    } else {
      argv[out++] = argv[i];  // not ours; leave for the caller
    }
  }
  // Null-terminate only when args were removed: slot `out` is then inside the
  // original array. An untouched argv is already terminated by the runtime.
  if (out < argc) argv[out] = nullptr;
  argc = out;
  return o;
}

std::uint64_t Options::seed_for(int rep) const {
  const auto i = static_cast<std::size_t>(rep);
  if (i < seeds.size()) return seeds[i];
  return seed_base + static_cast<std::uint64_t>(rep);
}

int Options::effective_reps() const {
  return seeds.empty() ? reps : static_cast<int>(seeds.size());
}

unsigned Options::resolved_shards() const {
  if (shards > 0) return static_cast<unsigned>(shards);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::string Options::json_path() const {
  return json_out.empty() ? "BENCH_" + bench + ".json" : json_out;
}

}  // namespace son::exp
