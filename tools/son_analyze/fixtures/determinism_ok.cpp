// son-analyze fixture: NEGATIVE cases for the determinism construct rules —
// constructs that LOOK like violations but are sound, so no rule may fire.
// Parsed structurally, never compiled.
#include <chrono>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

// Identifiers that merely contain banned substrings are not calls.
struct Clock {
  long next_time(int) { return 0; }   // not ::time()
  long runtime(long t) { return t; }  // not ::time()
};

void words_in_strings_and_comments() {
  // std::rand() in a comment is fine; so is system_clock.
  std::string s = "call std::rand() and std::chrono::system_clock::now()";
  std::string raw = R"(getenv("HOME") inside a raw string; unordered_map too)";
  (void)s, (void)raw;
}

// Membership lookups and insertions never observe iteration order.
bool dedup(std::unordered_set<unsigned long>& seen, unsigned long id) {
  if (seen.contains(id)) return true;
  seen.insert(id);
  return false;
}

// Iterating an unordered container with an order-independent body (pure
// lookup/erase bookkeeping, no events/output/accumulation) is allowed.
void prune(std::unordered_map<int, int>& cache) {
  for (auto& [k, v] : cache) {
    v = k;
  }
}

// A justified inline suppression silences the rule.
void suppressed_timing() {
  // son-analyze: allow(wall-clock) "fixture: harness-side timing, outside any result path"
  auto t0 = std::chrono::steady_clock::now();
  (void)t0;
}

// Range-for over ordered containers with effects is fine.
void ordered_iteration(const std::vector<int>& results_list) {
  long total = 0;
  for (int v : results_list) total += v;
  (void)total;
}
