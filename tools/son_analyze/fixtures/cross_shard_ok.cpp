// son-analyze fixture: NEGATIVE cases for cross-shard. Parsed structurally,
// never compiled.

struct Sim {
  unsigned long long schedule(long delay, void* cb);
};
struct Kernel {
  Sim& shard_sim(unsigned p);
};
struct Chan {
  void push(long when, void (*cb)());
};

// Justified inline suppression: silent.
void justified_setup(Kernel& kernel, unsigned p) {
  // son-analyze: allow(cross-shard) "deterministic bootstrap: runs before round 0 opens"
  kernel.shard_sim(p).schedule(0, nullptr);
}

// Same-partition schedule with no shard_sim() receiver: silent.
void own_queue(Sim& sim) { sim.schedule(5, nullptr); }

// Cross-partition traffic through a channel (lookahead-checked, flushed at
// round boundaries) is the sanctioned path.
void through_channel(Chan& out, long now) { out.push(now + 1'000'000, nullptr); }
