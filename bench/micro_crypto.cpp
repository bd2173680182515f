// Microbenchmarks of the crypto substrate: SHA-256 throughput, HMAC,
// Schnorr signing/verification (the result-certification cost every
// executor pays), its two exponentiations (the fixed-base comb for g and
// the sliding window for any other base), and Merkle trees.
//
// The custom main() first runs the crypto report and writes
// BENCH_crypto.json via bench::Report before handing over to
// google-benchmark (so CI's `--benchmark_filter=-.*` run still produces
// the report): SHA-256 MB/s through each block function, the one Sha256
// selected on this CPU, whether all paths agree on a 1-MiB digest, HMAC
// over 1 KiB, and Schnorr sign/verify, next to the visible CPU count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "bench_util.hpp"
#include "crypto/merkle.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace {

using namespace debuglet;
using namespace debuglet::crypto;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(BytesView(data.data(), data.size())));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = random_bytes(32, 2);
  const Bytes msg = random_bytes(1024, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(BytesView(key.data(), key.size()),
                                         BytesView(msg.data(), msg.size())));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_HmacSha256);

void BM_SchnorrSign(benchmark::State& state) {
  const KeyPair kp = KeyPair::from_seed(42);
  const Bytes msg = random_bytes(256, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.sign(BytesView(msg.data(), msg.size())));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  const KeyPair kp = KeyPair::from_seed(43);
  const Bytes msg = random_bytes(256, 5);
  const Signature sig = kp.sign(BytesView(msg.data(), msg.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verify(kp.public_key(), BytesView(msg.data(), msg.size()), sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_PowMod(benchmark::State& state, bool fixed_base) {
  Rng rng(6);
  Bytes eb(32);
  for (auto& b : eb) b = static_cast<std::uint8_t>(rng.next_u64());
  const U256 exponent = U256::from_be_bytes(BytesView(eb.data(), eb.size()));
  const U256 base = KeyPair::from_seed(44).public_key().y;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixed_base ? generator_pow(exponent)
                                        : group_pow(base, exponent));
  }
}
BENCHMARK_CAPTURE(BM_PowMod, comb_g, true);
BENCHMARK_CAPTURE(BM_PowMod, window_pk, false);

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i)
    leaves.push_back(random_bytes(64, 100 + static_cast<std::uint64_t>(i)));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleBuild)->Arg(16)->Arg(256)->Arg(4096);

void BM_MerkleProveVerify(benchmark::State& state) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 1024; ++i)
    leaves.push_back(random_bytes(64, 200 + static_cast<std::uint64_t>(i)));
  MerkleTree tree(leaves);
  std::size_t index = 0;
  for (auto _ : state) {
    const MerkleProof proof = tree.prove(index % 1024);
    benchmark::DoNotOptimize(merkle_verify(
        tree.root(),
        BytesView(leaves[index % 1024].data(), leaves[index % 1024].size()),
        proof));
    ++index;
  }
}
BENCHMARK(BM_MerkleProveVerify);

// --- Crypto report ----------------------------------------------------------

/// Seconds per call of `op`: the best of three repetitions, each calling it
/// until 50 ms have passed.
template <typename Op>
double seconds_per_call(Op op) {
  using Clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::size_t calls = 0;
    std::chrono::duration<double> elapsed{};
    do {
      op();
      ++calls;
      elapsed = Clock::now() - t0;
    } while (elapsed.count() < 0.05);
    const double per_call = elapsed.count() / static_cast<double>(calls);
    best = rep == 0 ? per_call : std::min(best, per_call);
  }
  return best;
}

/// SHA-256 of `data`, a whole number of blocks, through one block function.
Digest digest_through(detail::Sha256Blocks blocks, const Bytes& data) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  blocks(state, data.data(), data.size() / 64);
  std::uint8_t pad[64] = {0x80};
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i)
    pad[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  blocks(state, pad, 1);
  Digest out;
  for (std::size_t i = 0; i < 32; ++i)
    out.bytes[i] =
        static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

int crypto_report() {
  bench::banner("Crypto substrate: SHA-256 paths, HMAC, Schnorr",
                "the hashing and signing cost under every transaction");
  bench::Report report("crypto");
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  report.metric("cpus", cpus);

  struct Path {
    const char* name;
    detail::Sha256Blocks blocks;
  };
  std::vector<Path> paths = {{"portable", detail::sha256_blocks_portable}};
  if (const auto sha_ni = detail::sha256_blocks_sha_ni(); sha_ni != nullptr)
    paths.push_back({"sha-ni", sha_ni});

  const Bytes chunk = random_bytes(64 * 1024, 7);
  const Bytes mib = random_bytes(1024 * 1024, 8);
  const Digest expected = sha256(BytesView(mib.data(), mib.size()));
  bool agree = true;
  const char* selected = "unknown";
  for (const Path& path : paths) {
    std::uint32_t state[8] = {};
    const double s = seconds_per_call([&] {
      path.blocks(state, chunk.data(), chunk.size() / 64);
      benchmark::DoNotOptimize(state);
    });
    const double mb_per_s = static_cast<double>(chunk.size()) / s / 1e6;
    report.metric("sha256_mb_per_s", mb_per_s, {{"path", path.name}});
    const bool same = digest_through(path.blocks, mib) == expected;
    agree = agree && same;
    if (path.blocks == detail::sha256_blocks_selected()) selected = path.name;
    std::printf("  SHA-256 %-8s  %8.1f MB/s (64 KiB)  1-MiB digest %s\n",
                path.name, mb_per_s, same ? "matches" : "DIFFERS");
  }
  report.metric("sha256_selected", 1, {{"path", selected}});
  report.metric("sha256_paths_agree", agree ? 1 : 0);
  std::printf("  Sha256 selected: %s\n", selected);

  const Bytes key = random_bytes(32, 2);
  const Bytes msg = random_bytes(1024, 3);
  const double hmac_us = 1e6 * seconds_per_call([&] {
    benchmark::DoNotOptimize(hmac_sha256(BytesView(key.data(), key.size()),
                                         BytesView(msg.data(), msg.size())));
  });
  report.metric("hmac_sha256_us", hmac_us, {{"bytes", "1024"}});

  const KeyPair kp = KeyPair::from_seed(42);
  const Bytes body = random_bytes(256, 4);
  const BytesView body_view(body.data(), body.size());
  const Signature sig = kp.sign(body_view);
  const double sign_us = 1e6 * seconds_per_call([&] {
    benchmark::DoNotOptimize(kp.sign(body_view));
  });
  const double verify_us = 1e6 * seconds_per_call([&] {
    benchmark::DoNotOptimize(verify(kp.public_key(), body_view, sig));
  });
  report.metric("schnorr_sign_us", sign_us, {{"bytes", "256"}});
  report.metric("schnorr_verify_us", verify_us, {{"bytes", "256"}});
  std::printf("  HMAC 1 KiB %.2f us  sign %.1f us  verify %.1f us  (%u CPUs)\n",
              hmac_us, sign_us, verify_us, cpus);

  // CI gates the SHA-NI speedup from these rows; the checks here guard
  // correctness only.
  report.check(agree, "every SHA-256 path gives the same 1-MiB digest");
  report.check(paths.size() == 1 || std::string(selected) == "sha-ni",
               "Sha256 selected the SHA extensions where the CPU has them");
  return report.summary();
}

}  // namespace

int main(int argc, char** argv) {
  const int report_rc = crypto_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return report_rc;
}
