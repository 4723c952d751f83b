// son-analyze fixture: POSITIVE cases for shard-confinement. The self-test
// passes --partition-glob "*confinement_bad.cpp" so every function here is a
// partition entry point.

namespace sim {
struct Simulator {
  unsigned long long schedule(long delay, void* cb);
};
struct ShardedKernel {
  Simulator& shard_sim(unsigned p);
  Simulator& control_sim();
  void schedule_global(long when, void* cb);
};
}  // namespace sim

// Mutable file-scope state shared across shard workers.
int g_shared_hits = 0;

// Sink 1: direct control-plane scheduling from partition context.
void handler_schedules_global(sim::ShardedKernel& k) { k.schedule_global(10, nullptr); }

// Sink 2: reached transitively across files — root -> helper -> control_sim.
// The helper lives in confinement_helper.cpp, which the partition glob does
// NOT match, so the finding must come from the call-graph walk alone.
void helper_touches_control(sim::ShardedKernel& k);
void handler_via_helper(sim::ShardedKernel& k) { helper_touches_control(k); }

// Sink 3: direct cross-shard schedule (the cross-shard rule, transitive form).
void handler_cross_shard(sim::ShardedKernel& kernel, unsigned other) {
  kernel.shard_sim(other).schedule(0, nullptr);
}

// Sink 4: partition-reachable code touching mutable file-scope state.
void handler_touches_static() { ++g_shared_hits; }
