// CRYPTO — the intrusion-tolerant auth fast path in isolation (§IV-B).
//
// The per-hop cost of IT messaging is dominated by HMAC-SHA256 tags: every
// frame is verified against the ingress key and re-signed with the egress
// key. Two orthogonal optimizations make up the fast path:
//
//   * HMAC midstate caching (crypto::HmacKey / KeyTable::mac): the two
//     key-pad block compressions (k^ipad, k^opad) are absorbed once per
//     peer; a short-message tag then costs 2 SHA-256 compressions instead
//     of 4 (theoretical 2.0x on one-block messages, e.g. the 23-byte
//     control-frame head).
//   * Runtime kernel dispatch (crypto::sha256_kernel): on x86-64 with the
//     SHA extensions the hardware compression kernel replaces the portable
//     scalar loop. Digests are bit-identical either way.
//
// The 'seed' cells time the stateless hmac_sha256/hmac_tag reference: a
// from-scratch HMAC per tag (fresh key-pad compressions), kernel-pinned so
// midstate and dispatch gains are measured separately. Throughputs are
// machine-dependent and recorded as timings (outside the deterministic
// report part); every cell also cross-checks digests/tags across paths as
// deterministic scalars, so the JSON asserts bit-equality on any machine.
#include <chrono>
#include <cstring>

#include "bench_common.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace son;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

crypto::Key bench_key(std::uint64_t seed) {
  crypto::Key k{};
  for (std::size_t i = 0; i < k.size(); ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    k[i] = static_cast<std::uint8_t>(seed >> 56);
  }
  return k;
}

std::vector<std::uint8_t> bench_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    v[i] = static_cast<std::uint8_t>(seed >> 56);
  }
  return v;
}

// ---------- SHA-256 bulk throughput: scalar vs dispatched kernel -----------

exp::Metrics run_sha256(crypto::Sha256Kernel kernel, std::size_t buf_bytes,
                        std::size_t iters, std::uint64_t seed) {
  const auto buf = bench_bytes(buf_bytes, seed);
  crypto::Sha256 h{kernel};

  // Deterministic cross-check: this kernel's digest == the scalar reference.
  crypto::Sha256 ref{crypto::Sha256Kernel::kScalar};
  ref.update(std::span{buf});
  h.update(std::span{buf});
  const bool agree = h.finish() == ref.finish();

  h.reset();
  std::uint8_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    h.update(std::span{buf});
    sink ^= h.finish()[0];
    h.reset();
  }
  const double wall = seconds_since(t0);

  exp::Metrics m;
  m.scalar("digest_matches_scalar", agree ? 1.0 : 0.0);
  m.scalar("digest_sink", static_cast<double>(sink));  // defeats dead-code elim
  m.timing("mb_per_s",
           static_cast<double>(buf_bytes) * static_cast<double>(iters) / wall / 1e6);
  return m;
}

// ---------- HMAC tag throughput: seed path vs midstate, per kernel ----------

enum class TagPath {
  kSeed,      // from-scratch HMAC per tag (key-pad compressions every time)
  kMidstate,  // prebuilt HmacKey midstate, 2 compressions per short tag
};

/// Tags/s over a fixed message split as head||body (body may be empty).
/// The seed path is the stateless hmac_sha256 reference — both key-pad
/// compressions recomputed per tag — with the kernel pinned so midstate gain
/// is isolated from dispatch gain.
exp::Metrics run_tags(TagPath path, crypto::Sha256Kernel kernel, std::size_t head_bytes,
                      std::size_t body_bytes, std::size_t iters, std::uint64_t seed) {
  const auto key = bench_key(seed);
  const auto head = bench_bytes(head_bytes, seed * 3 + 1);
  const auto body = bench_bytes(body_bytes, seed * 5 + 2);
  const crypto::HmacKey prebuilt{std::span<const std::uint8_t>{key}, kernel};
  const std::span<const std::uint8_t> key_sp{key};

  // Deterministic cross-check: midstate tag == stateless reference tag over
  // the concatenated message, regardless of kernel.
  std::vector<std::uint8_t> concat = head;
  concat.insert(concat.end(), body.begin(), body.end());
  const bool agree =
      prebuilt.tag(std::span{head}, std::span{body}) ==
      crypto::hmac_tag(key_sp, std::span{concat});

  std::uint8_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    if (path == TagPath::kSeed) {
      sink ^= crypto::hmac_sha256(key_sp, std::span{head}, std::span{body}, kernel)[0];
    } else {
      sink ^= prebuilt.tag(std::span{head}, std::span{body})[0];
    }
  }
  const double wall = seconds_since(t0);

  exp::Metrics m;
  m.scalar("tag_matches_reference", agree ? 1.0 : 0.0);
  m.scalar("tag_sink", static_cast<double>(sink));
  m.timing("tags_per_s", static_cast<double>(iters) / wall);
  return m;
}

// ---------- Hash-once fan-out: re-sign one message toward K peers -----------

/// A node re-signing one message toward K peers. Seed path: per peer, build
/// the concatenated auth buffer and run the stateless hmac_tag on the raw
/// pairwise key (what per-peer auth_bytes + stateless hmac did). Fast path:
/// encode the head once into a stack buffer and run K midstate HMACs
/// streaming head||payload.
exp::Metrics run_fanout(bool fast, std::size_t fanout, std::size_t head_bytes,
                        std::size_t body_bytes, std::size_t iters, std::uint64_t seed) {
  const auto master = bench_key(seed);
  const auto n = static_cast<std::uint32_t>(fanout + 1);
  crypto::KeyTable table{master, /*self=*/0, n};

  std::vector<const crypto::HmacKey*> macs;
  std::vector<crypto::Key> pair_keys;
  for (std::uint32_t p = 1; p < n; ++p) {
    macs.push_back(&table.mac(p));
    pair_keys.push_back(crypto::derive_pair_key(master, /*a=*/0, p));
  }

  const auto head = bench_bytes(head_bytes, seed * 3 + 1);
  const auto body = bench_bytes(body_bytes, seed * 5 + 2);

  // Deterministic cross-check: both paths produce identical tags per peer.
  bool agree = true;
  for (std::uint32_t p = 1; p < n; ++p) {
    std::vector<std::uint8_t> concat = head;
    concat.insert(concat.end(), body.begin(), body.end());
    agree = agree && (macs[p - 1]->tag(std::span{head}, std::span{body}) ==
                      crypto::hmac_tag(pair_keys[p - 1], concat));
  }

  std::uint8_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    if (fast) {
      for (const crypto::HmacKey* mac : macs) {
        sink ^= mac->tag(std::span{head}, std::span{body})[0];
      }
    } else {
      for (std::uint32_t p = 1; p < n; ++p) {
        std::vector<std::uint8_t> concat(head.size() + body.size());
        std::memcpy(concat.data(), head.data(), head.size());
        std::memcpy(concat.data() + head.size(), body.data(), body.size());
        sink ^= crypto::hmac_tag(pair_keys[p - 1], concat)[0];
      }
    }
  }
  const double wall = seconds_since(t0);

  exp::Metrics m;
  m.scalar("tags_match_seed_path", agree ? 1.0 : 0.0);
  m.scalar("tag_sink", static_cast<double>(sink));
  m.timing("resigns_per_s", static_cast<double>(iters) / wall);
  return m;
}

const char* path_label(TagPath p) { return p == TagPath::kSeed ? "seed" : "midstate"; }

std::string tag_cell_label(const char* msg, TagPath path, crypto::Sha256Kernel k) {
  return std::string{msg} + "/" + path_label(path) + "/" + crypto::to_string(k);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = exp::Options::parse(argc, argv, "crypto", 3, 9000);
  const std::size_t sha_iters = opts.quick ? 64 : 512;        // x 1 MiB hashed
  const std::size_t tag_iters = opts.quick ? 50'000 : 400'000;
  const std::size_t fan_iters = opts.quick ? 5'000 : 50'000;
  constexpr std::size_t kFanout = 8;
  constexpr std::size_t kMiB = 1 << 20;

  const bool shani = crypto::sha256_shani_supported();
  const crypto::Sha256Kernel dispatched = crypto::sha256_kernel();

  // Message shapes from the overlay: the 23-byte control-frame auth head
  // (hello/LSA/GSA frames; one SHA block including HMAC padding — the
  // midstate best case), the 64-byte data auth head alone, and a full
  // 64B + 1200B data frame (payload streamed as the body span).
  struct Shape {
    const char* label;
    std::size_t head, body;
  };
  const std::vector<Shape> shapes{
      {"control-23B", 23, 0}, {"data-head-64B", 64, 0}, {"data-64B+1200B", 64, 1200}};

  std::vector<crypto::Sha256Kernel> kernels{crypto::Sha256Kernel::kScalar};
  if (shani) kernels.push_back(crypto::Sha256Kernel::kShaNi);

  exp::Experiment ex{opts};
  for (const auto k : kernels) {
    exp::Json params = exp::Json::object();
    params["kernel"] = crypto::to_string(k);
    params["buf_bytes"] = static_cast<std::uint64_t>(kMiB);
    ex.add_cell(std::string{"sha256-1MiB/"} + crypto::to_string(k), std::move(params),
                [k, sha_iters](std::uint64_t seed) {
                  return run_sha256(k, kMiB, sha_iters, seed);
                });
  }
  for (const auto& s : shapes) {
    for (const auto path : {TagPath::kSeed, TagPath::kMidstate}) {
      for (const auto k : kernels) {
        exp::Json params = exp::Json::object();
        params["path"] = path_label(path);
        params["kernel"] = crypto::to_string(k);
        params["head_bytes"] = static_cast<std::uint64_t>(s.head);
        params["body_bytes"] = static_cast<std::uint64_t>(s.body);
        ex.add_cell(tag_cell_label(s.label, path, k), std::move(params),
                    [path, k, s, tag_iters](std::uint64_t seed) {
                      return run_tags(path, k, s.head, s.body, tag_iters, seed);
                    });
      }
    }
  }
  for (const bool fast : {false, true}) {
    exp::Json params = exp::Json::object();
    params["path"] = fast ? "serialize-once + midstate" : "per-peer serialize + seed HMAC";
    params["fanout"] = static_cast<std::uint64_t>(kFanout);
    ex.add_cell(std::string{"fanout-K8/"} + (fast ? "fast" : "seed"), std::move(params),
                [fast, fan_iters](std::uint64_t seed) {
                  return run_fanout(fast, kFanout, 64, 400, fan_iters, seed);
                });
  }
  const exp::Report report = ex.run();

  bench::heading("CRYPTO", "IT auth fast path: midstate caching + SHA-256 dispatch");
  bench::note("Dispatched kernel on this machine: %s (SHA-NI %s).",
              crypto::sha256_kernel_name(), shani ? "available" : "unavailable");
  bench::note("'seed' = from-scratch HMAC per tag (key-pad compressions recomputed,");
  bench::note("the seed implementation); 'midstate' = cached k^ipad/k^opad states.");
  bench::note("All paths produce bit-identical tags (asserted per cell below).");

  bench::note("");
  bench::note("SHA-256 bulk throughput (1 MiB messages):");
  bench::Table sha_t{{"kernel", "MB/s", "digest ok"}, 12};
  std::printf("%12s", "");
  sha_t.print_header();
  for (const auto k : kernels) {
    const auto& c = report.cell(std::string{"sha256-1MiB/"} + crypto::to_string(k));
    std::printf("%12s", crypto::to_string(k));
    sha_t.cell(c.timing_mean("mb_per_s"), "%.0f");
    sha_t.cell(c.scalar_mean("digest_matches_scalar") == 1.0 ? "yes" : "NO");
    sha_t.end_row();
  }

  bench::note("");
  bench::note("HMAC tag throughput by message shape (tags/s):");
  bench::Table tag_t{{"shape", "seed", "midstate", "gain", "dispatched", "total", "ok"}, 12};
  std::printf("%16s", "");
  tag_t.print_header();
  double control_midstate_gain = 0.0;
  for (const auto& s : shapes) {
    const double seed_scalar =
        report.cell(tag_cell_label(s.label, TagPath::kSeed, crypto::Sha256Kernel::kScalar))
            .timing_mean("tags_per_s");
    const double mid_scalar =
        report
            .cell(tag_cell_label(s.label, TagPath::kMidstate, crypto::Sha256Kernel::kScalar))
            .timing_mean("tags_per_s");
    const double mid_dispatched =
        report.cell(tag_cell_label(s.label, TagPath::kMidstate, dispatched))
            .timing_mean("tags_per_s");
    bool ok = true;
    for (const auto path : {TagPath::kSeed, TagPath::kMidstate}) {
      for (const auto k : kernels) {
        ok = ok && report.cell(tag_cell_label(s.label, path, k))
                           .scalar_mean("tag_matches_reference") == 1.0;
      }
    }
    if (std::string{s.label} == "control-23B") {
      control_midstate_gain = mid_scalar / seed_scalar;
    }
    std::printf("%16s", s.label);
    tag_t.cell(seed_scalar, "%.2e");
    tag_t.cell(mid_scalar, "%.2e");
    tag_t.cell(mid_scalar / seed_scalar, "%.2fx");
    tag_t.cell(mid_dispatched, "%.2e");
    tag_t.cell(mid_dispatched / seed_scalar, "%.2fx");
    tag_t.cell(ok ? "yes" : "NO");
    tag_t.end_row();
  }
  bench::note("");
  bench::note("'gain' isolates midstate caching (both scalar); 'total' stacks the");
  bench::note("dispatched kernel on top. One-block messages (control-23B) have the");
  bench::note("theoretical midstate ceiling of 2.0x (2 vs 4 compressions); the");
  bench::note("acceptance floor is 1.8x. Measured: %.2fx.", control_midstate_gain);

  bench::note("");
  bench::note("Hash-once fan-out: re-sign one 64B+400B message toward 8 peers.");
  bench::Table fan_t{{"path", "re-signs/s", "gain", "ok"}, 14};
  std::printf("%30s", "");
  fan_t.print_header();
  const double fan_seed = report.cell("fanout-K8/seed").timing_mean("resigns_per_s");
  for (const bool fast : {false, true}) {
    const auto& c = report.cell(std::string{"fanout-K8/"} + (fast ? "fast" : "seed"));
    std::printf("%30s", fast ? "serialize-once + midstate" : "per-peer serialize + seed");
    fan_t.cell(c.timing_mean("resigns_per_s"), "%.2e");
    fan_t.cell(c.timing_mean("resigns_per_s") / fan_seed, "%.2fx");
    fan_t.cell(c.scalar_mean("tags_match_seed_path") == 1.0 ? "yes" : "NO");
    fan_t.end_row();
  }

  return bench::write_report(report, opts) ? 0 : 1;
}
