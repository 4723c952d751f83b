// son-analyze fixture: POSITIVE cases for the determinism construct rules —
// every one must fire at least once in this file. Line numbers are not
// asserted — rule ids are. Parsed structurally, never compiled.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

struct Sim {
  void schedule(int, void (*)());
};

void wall_clock_violations() {
  auto a = std::chrono::system_clock::now();       // wall-clock
  auto b = std::chrono::steady_clock::now();       // wall-clock
  auto c = std::chrono::high_resolution_clock::now();  // wall-clock
  auto d = time(nullptr);                          // wall-clock
  (void)a, (void)b, (void)c, (void)d;
}

void raw_rand_violations() {
  int a = std::rand();       // raw-rand
  srand(42);                 // raw-rand
  std::random_device rd;     // raw-rand
  (void)a, (void)rd;
}

void std_rng_violations() {
  std::mt19937 gen;                  // std-rng (also unseeded)
  std::mt19937_64 gen64{12345};      // std-rng (seeded is still banned: use sim::Rng)
  std::default_random_engine eng;    // std-rng
  (void)gen, (void)gen64, (void)eng;
}

void env_read_violations() {
  const char* home = std::getenv("HOME");  // env-read
  (void)home;
}

void unordered_iter_violations(Sim& sim) {
  std::unordered_map<int, int> pending;
  for (const auto& [k, v] : pending) {  // unordered-iter: body emits an event
    sim.schedule(k + v, nullptr);
  }
  std::vector<int> out;
  for (auto it = pending.begin(); it != pending.end(); ++it) {  // unordered-iter
    out.push_back(it->first);
  }
}

void ptr_key_order_violations() {
  std::map<int*, int> by_address;  // ptr-key-order
  (void)by_address;
}

struct Metrics {
  double mean() const { return 0.0; }
};

double float_accum_violations(const std::vector<Metrics>& results) {
  double total_latency = 0.0;
  for (const auto& m : results) {
    total_latency += m.mean();  // float-accum: fold through merge() instead
  }
  return total_latency;
}

void bad_suppression_violation() {
  // son-analyze: allow(wall-clock)
  auto t = std::chrono::steady_clock::now();  // bad-suppression (no reason) + wall-clock
  (void)t;
}
