// son-analyze fixture: POSITIVE cases for cross-shard. Both receiver
// spellings fire, and a suppression without a reason both fails (a
// bad-suppression finding) and leaves its site firing. Parsed structurally,
// never compiled.

struct Sim {
  unsigned long long schedule(long delay, void* cb);
};
struct Kernel {
  Sim& shard_sim(unsigned p);
};
struct KernelPtr {
  Sim* shard_sim(unsigned p);
};

// Reference receiver, `.schedule` spelling: fires.
void dot_receiver(Kernel& kernel, unsigned other) {
  kernel.shard_sim(other).schedule(0, nullptr);  // cross-shard
}

// Pointer receiver, `->schedule` spelling: fires.
void arrow_receiver(KernelPtr& kernel, unsigned other) {
  kernel.shard_sim(other)->schedule(0, nullptr);  // cross-shard
}

// Suppression without a reason: does NOT suppress — the site still fires,
// plus a bad-suppression finding for the comment itself.
void unjustified_setup(Kernel& kernel, unsigned other) {
  // son-analyze: allow(cross-shard)
  kernel.shard_sim(other).schedule(0, nullptr);
}
