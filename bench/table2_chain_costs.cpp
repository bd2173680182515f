// Table II reproduction: the cost of submitting a Debuglet application to
// the blockchain, per application size, plus the storage rebate refunded
// when the stored data is freed.
//
// The bench runs REAL transactions against the chain: a marketplace-style
// contract stores one application object of each size, the sender's
// balance delta is the measured total cost, and deleting the object
// measures the refunded rebate. Prices are reported in SUI (1 SUI = 1e9
// MIST), matching the paper's units.
#include "bench_util.hpp"
#include "chain/chain.hpp"

namespace {

using namespace debuglet;
using namespace debuglet::chain;

// Minimal contract storing and freeing application blobs, isolating the
// exact cost pattern Table II measures (one object per submission).
class AppStore : public Contract {
 public:
  std::string name() const override { return "app_store"; }
  Result<Bytes> call(CallContext& ctx, const std::string& function,
                     BytesView args) override {
    if (function == "submit") {
      auto id = ctx.create_object(Bytes(args.begin(), args.end()));
      if (!id) return id.error();
      BytesWriter w;
      w.u64(*id);
      return w.take();
    }
    if (function == "free") {
      BytesReader r(args);
      auto id = r.u64();
      if (!id) return id.error();
      if (auto s = ctx.delete_object(*id); !s) return s.error();
      return Bytes{};
    }
    return fail("unknown function");
  }
};

}  // namespace

int main() {
  bench::banner("Table II — cost of submitting a Debuglet application",
                "Debuglet (ICDCS'24), Table II / Section V-B");

  Blockchain chain;
  if (auto s = chain.register_contract(std::make_unique<AppStore>()); !s)
    return 2;
  const crypto::KeyPair initiator = crypto::KeyPair::from_seed(424242);
  const Address addr = Address::of(initiator.public_key());
  chain.mint(addr, 100'000'000'000ULL);  // 100 SUI

  const struct {
    std::uint64_t size;
    const char* label;
    double paper_total;
    double paper_rebate;
  } kRows[] = {
      {0, "0 B", 0.01369, 0.00430},      {100, "100 B", 0.01585, 0.00632},
      {1000, "1 kB", 0.03527, 0.02456},  {5000, "5 kB", 0.12160, 0.10562},
      {10000, "10 kB", 0.22953, 0.20696},
  };

  std::printf("\n%-8s | %12s %14s | %12s %14s\n", "size", "total(SUI)",
              "rebate(SUI)", "paper total", "paper rebate");
  std::printf("%.*s\n", 72,
              "------------------------------------------------------------------------");

  bench::Report checks("table2_chain_costs");
  std::vector<double> totals;
  for (const auto& row : kRows) {
    const Mist before = chain.balance(addr);
    auto receipt = chain.submit(chain.make_transaction(
        initiator, "app_store", "submit", Bytes(row.size, 0x5A)));
    if (!receipt || !receipt->success) return 2;
    const Mist total = before - chain.balance(addr);

    BytesReader r(BytesView(receipt->return_value.data(),
                            receipt->return_value.size()));
    const ObjectId id = *r.u64();
    const Mist before_free = chain.balance(addr);
    BytesWriter w;
    w.u64(id);
    auto free_receipt = chain.submit(chain.make_transaction(
        initiator, "app_store", "free", w.take()));
    if (!free_receipt || !free_receipt->success) return 2;
    const Mist rebate =
        chain.balance(addr) + free_receipt->gas_charged - before_free;

    std::printf("%-8s | %12.5f %14.5f | %12.5f %14.5f\n", row.label,
                mist_to_sui(total), mist_to_sui(rebate), row.paper_total,
                row.paper_rebate);
    totals.push_back(mist_to_sui(total));
    checks.metric("table2.total_sui", mist_to_sui(total),
                  {{"size", row.label}});
    checks.metric("table2.rebate_sui", mist_to_sui(rebate),
                  {{"size", row.label}});
    checks.check(std::abs(mist_to_sui(total) - row.paper_total) < 1e-4,
                 std::string(row.label) + " total matches Table II");
    checks.check(std::abs(mist_to_sui(rebate) - row.paper_rebate) < 1e-4,
                 std::string(row.label) + " rebate matches Table II");
  }

  // Structural properties the paper's discussion relies on.
  checks.check(totals[1] - totals[0] < 0.0025,
               "per-100-byte increment is small (linear growth)");
  const double slope1 = (totals[2] - totals[0]) / 1000.0;
  const double slope2 = (totals[4] - totals[2]) / 9000.0;
  checks.check(std::abs(slope1 - slope2) < 1e-7,
               "cost is linear in payload size");

  // The paper's off-chain optimization: storing only a 32-byte hash keeps
  // the fee near one cent.
  const Mist hash_only = submission_cost(32);
  const double usd = mist_to_sui(hash_only) * 0.94;  // paper's SUI price
  std::printf("\nHash-only submission (32 B): %.5f SUI = %.2f cents "
              "(paper: ~1 cent)\n",
              mist_to_sui(hash_only), usd * 100.0);
  checks.metric("table2.hash_only_sui", mist_to_sui(hash_only));
  checks.check(usd < 0.02, "hash-only submissions cost about a cent");
  return checks.summary();
}
