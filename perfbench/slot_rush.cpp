// slot_rush: the write side of the calendar. Pre-signed PurchaseSlot
// transactions — each from its own funded initiator, for its own
// registered slot pair, on seven disjoint executor pairs of the default
// 8-AS system — go to the chain in submit_batch calls with
// min(4, nproc) workers. No quote, no simnet, no DVM. Signing happens
// between batches, outside the timed region.
#include <set>
#include <thread>

#include "common.hpp"
#include "core/initiator.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace debuglet;

namespace {

/// Purchases per executor pair per batch; a batch is 7 pairs x this.
constexpr std::size_t kPerPair = 4;
constexpr chain::Mist kInitiatorFunding = 10'000'000'000ULL;

struct Pair {
  topology::InterfaceKey client;
  topology::InterfaceKey server;
  std::vector<marketplace::TimeSlot> client_slots;  // calendar at setup
  std::vector<marketplace::TimeSlot> server_slots;
  std::vector<std::size_t> order;  // seeded order the slots are bought in
  std::size_t next = 0;
  std::size_t bought = 0;
};

/// Seeded disjoint pairing of all executors, endpoints in different ASes.
std::vector<Pair> make_pairs(core::DebugletSystem& system, Rng& rng) {
  std::vector<topology::InterfaceKey> keys = system.executor_keys();
  for (;;) {
    for (std::size_t i = keys.size(); i > 1; --i)
      std::swap(keys[i - 1], keys[rng.next_below(i)]);
    bool crosses = true;
    for (std::size_t i = 0; i + 1 < keys.size(); i += 2)
      crosses = crosses && keys[i].asn != keys[i + 1].asn;
    if (crosses) break;
  }
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i + 1 < keys.size(); i += 2) {
    Pair p;
    p.client = keys[i];
    p.server = keys[i + 1];
    p.client_slots = system.marketplace().available_slots(p.client);
    p.server_slots = system.marketplace().available_slots(p.server);
    const std::size_t n = std::min(p.client_slots.size(),
                                   p.server_slots.size());
    p.order.resize(n);
    for (std::size_t j = 0; j < n; ++j) p.order[j] = j;
    for (std::size_t j = n; j > 1; --j)
      std::swap(p.order[j - 1], p.order[rng.next_below(j)]);
    pairs.push_back(std::move(p));
  }
  return pairs;
}

std::uint64_t fold_digest(std::uint64_t h, const crypto::Digest& d) {
  for (std::uint8_t b : d.bytes) h = (h ^ b) * 0x100000001B3ULL;
  return h;
}

}  // namespace

RunReport run_slot_rush(const Options& opts) {
  RunReport report;
  if (opts.trace) obs::set_enabled(true);

  SetupTimes setup;
  Pace pace;
  std::unique_ptr<core::DebugletSystem> world;
  build_chain_worlds(opts.seed, (kSetups + 1) / 2, setup, pace, world);
  core::DebugletSystem& system = *world;
  if (opts.trace) report_world_layers(report, system);
  chain::Blockchain& chain = system.chain();

  // Generator state: pairs, slot orders and the two Debuglet payloads.
  Rng rng(opts.seed ^ 0x5107u);
  std::vector<Pair> pairs = make_pairs(system, rng);
  marketplace::ApplicationPayload client_app;
  client_app.bytecode = apps::make_probe_client_debuglet().serialize();
  marketplace::ApplicationPayload server_app;
  server_app.bytecode = apps::make_echo_server_debuglet().serialize();
  server_app.listen_port = 40000;
  const unsigned workers =
      opts.workers ? opts.workers
                   : std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  report.facts["workers"] = std::to_string(workers);

  // Token accounting: every account that can hold MIST in this world.
  std::vector<chain::Address> accounts;
  for (topology::AsNumber asn :
       system.network().topology().as_numbers())
    if (auto pk = system.as_public_key(asn)) accounts.push_back(
        chain::Address::of(*pk));
  auto token_total = [&] {
    chain::Mist total = chain.escrow_balance(marketplace::kContractName) +
                        chain.escrow_balance(marketplace::kReputationContractName);
    for (const chain::Address& a : accounts) total += chain.balance(a);
    return total;
  };
  const chain::Mist tokens_before = token_total();
  chain::Mist minted = 0;
  chain::Mist gas_burned = 0;

  SpanRecorder spans;
  obs::registry().reset_values();
  obs::set_enabled(false);

  Ops batches;  // work = purchases committed per batch
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t initiator_index = 0;
  std::vector<std::uint8_t> sample_signing_bytes;
  double busy_s = 0.0;
  std::uint64_t receipt_hash = 0xCBF29CE484222325ULL;
  RssAfter rss(30);

  for (std::uint64_t b = 0;; ++b) {
    if (busy_s >= opts.seconds || (opts.max_ops && b >= opts.max_ops)) break;
    // Generate and sign the next batch (untimed).
    std::vector<chain::Transaction> txs;
    for (std::size_t k = 0; k < kPerPair; ++k) {
      for (Pair& p : pairs) {
        if (p.next >= p.order.size()) continue;
        const std::size_t slot = p.order[p.next++];
        marketplace::PurchaseSlotArgs args;
        args.client_key = p.client;
        args.server_key = p.server;
        args.client_slot = p.client_slots[slot];
        args.server_slot = p.server_slots[slot];
        args.client_app = client_app;
        args.server_app = server_app;
        const crypto::KeyPair key = crypto::KeyPair::from_seed(
            opts.seed * 0x9E3779B97F4A7C15ULL + (++initiator_index));
        chain.mint(chain::Address::of(key.public_key()), kInitiatorFunding);
        accounts.push_back(chain::Address::of(key.public_key()));
        minted += kInitiatorFunding;
        txs.push_back(chain.make_transaction_with_nonce(
            key, 0, marketplace::kContractName, "PurchaseSlot",
            args.serialize(),
            args.client_slot.price + args.server_slot.price, 1'000'000'000,
            marketplace::access_purchase_slot(p.client, p.server)));
      }
    }
    if (txs.empty()) break;  // every calendar sold out
    if (sample_signing_bytes.empty())
      sample_signing_bytes = txs.front().signing_bytes();

    const bool traced = traced_op(opts, b);
    if (traced) obs::set_enabled(true);
    std::vector<Result<chain::Receipt>> results;
    pace.tick();  // signing ran since the last burst
    const auto t0 = Clock::now();
    {
      ScopedSpan op(traced ? &spans : nullptr, "rush.batch", b);
      ScopedSpan s(traced ? &spans : nullptr, "chain.submit_batch", b);
      results = chain.submit_batch(txs, chain::BatchOptions{workers});
    }
    const double ms = ms_between(t0, Clock::now());
    if (traced) obs::set_enabled(false);
    pace.tick();
    busy_s += ms / 1e3;
    (traced ? traced_ms : untraced_ms).push_back(ms);

    submitted += txs.size();
    std::uint64_t batch_committed = 0;
    for (const auto& r : results) {
      if (!r) continue;
      gas_burned += r->gas_charged;
      receipt_hash = fold_digest(receipt_hash, r->transaction_digest);
      if (r->success) ++batch_committed;
    }
    committed += batch_committed;
    batches.add(ms, pace.scale(ms), static_cast<double>(batch_committed));
    rss.done(batches.work.size());
  }
  for (Pair& p : pairs) p.bought = p.next;

  report.attempted = submitted;
  report.failed = submitted - committed;
  report.facts["batches"] = std::to_string(batches.work.size());
  report.facts["batch_size"] = std::to_string(pairs.size() * kPerPair);
  report_end_to_end(report, std::move(batches), "submit_batch calls", rss.mb(),
                    pace);

  report.check(submitted > 0 && committed == submitted,
               "slot_rush: every purchase commits with success");
  // Each (executor, slot) sold once: exactly the bought slots left each
  // calendar, and each pair holds two application objects per purchase.
  bool sold_once = true;
  for (const Pair& p : pairs) {
    for (const auto& [key, initial] :
         {std::pair{p.client, &p.client_slots},
          std::pair{p.server, &p.server_slots}}) {
      const auto now = system.marketplace().available_slots(key);
      std::set<SimTime> left;
      for (const auto& s : now) left.insert(s.start);
      sold_once = sold_once && now.size() + p.bought == initial->size();
      for (std::size_t j = 0; j < p.bought; ++j)
        sold_once = sold_once &&
                    !left.contains((*initial)[p.order[j]].start);
    }
    sold_once = sold_once && system.marketplace()
                                     .applications_for(p.client, p.server)
                                     .size() == 2 * p.bought;
  }
  report.check(sold_once, "slot_rush: each (executor, slot) sold exactly once");
  report.check(token_total() + gas_burned == tokens_before + minted,
               "slot_rush: tokens conserved (minted = balances + escrow + "
               "gas burned)");
  report.check(chain.verify_integrity(),
               "slot_rush: chain integrity holds at the end");
  const chain::Block& tip = chain.block(chain.height() - 1);
  report.facts["final_block_root"] = tip.transactions_root.hex();
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(receipt_hash));
  report.facts["receipt_digest_hash"] = hash;

  if (opts.trace) {
    const auto d = spans.durations_ms("chain.submit_batch");
    report.layer("chain.submit_batch_ms", median(d), "ms", d.size(),
                 "median span per batch");
    report_histogram_layer(report, "chain.batch_groups", "chain.batch.groups",
                           "count", true);
    report_histogram_layer(report, "chain.block_build_ms",
                           "chain.block_build_ms", "ms", false);
    report_trace_overhead(report, traced_ms, untraced_ms);
    finish_trace(report, spans, opts, "rush.batch", 0.9);
    std::vector<marketplace::LookupSlotArgs> lookups(3);
    for (std::size_t i = 0; i < lookups.size(); ++i) {
      lookups[i].client_key = pairs[i].client;
      lookups[i].server_key = pairs[i].server;
    }
    report_quote_layer(report, chain, lookups);
    report_crypto_layer(report, sample_signing_bytes, opts.seed);
    report_vm_layer(report);
  }

  // The remaining set-ups, after the timed phase (see build_chain_worlds).
  std::unique_ptr<core::DebugletSystem> spare;
  build_chain_worlds(opts.seed, kSetups / 2, setup, pace, spare);
  report_setup(report, setup, opts.trace);
  return report;
}

}  // namespace perfbench
