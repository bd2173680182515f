// DebugletSystem: a fully wired Debuglet deployment.
//
// Owns the simulated network, the blockchain with the marketplace contract,
// and one executor per AS border interface. Each AS runs an ExecutorAgent —
// the control-plane glue the paper assigns to the deploying AS: it
// registers its executor and time slots on-chain, subscribes to deployment
// events keyed by its ⟨AS, intf⟩, pulls purchased applications from the
// chain, runs them on its data-plane ExecutorService, and reports certified
// results back through ResultReady (paper Fig. 7 lifecycle).
#pragma once

#include <map>
#include <memory>

#include "chain/chain.hpp"
#include "executor/executor.hpp"
#include "marketplace/contract.hpp"
#include "marketplace/reputation.hpp"
#include "simnet/scenarios.hpp"

namespace debuglet::core {

/// Length of every slot an executor registers on its calendar.
inline constexpr SimDuration kSlotLength = duration::seconds(20);

/// Per-system economic and scheduling defaults.
struct SystemConfig {
  /// Slot calendar registered by every executor at startup, and rolled
  /// forward by its deployments (ExecutorAgent::top_up).
  SimTime slot_horizon = duration::hours(48);
  chain::Mist slot_price = 1'000'000;  // 0.001 SUI ≈ 0.1 cents (paper §VI-C)
  executor::ExecutorConfig executor;
};

/// How a byzantine executor agent corrupts the results it publishes
/// (chaos mode; exercises the initiator's verification rejections the way
/// §VI-E's fault-hiding ISP would).
enum class ByzantineMode : std::uint8_t {
  kHonest = 0,
  kBadSignature,     // flip a bit in the signature before publishing
  kTamperedOutput,   // mutate the measurement output after signing
};

/// One AS's control-plane agent (operator identity + event handling).
class ExecutorAgent {
 public:
  ExecutorAgent(chain::Blockchain& chain, simnet::SimulatedNetwork& network,
                topology::InterfaceKey key, crypto::KeyPair operator_key,
                const SystemConfig& config);

  /// Registers the executor and its slot calendar on-chain.
  Status bootstrap(SimTime horizon_start);

  const crypto::KeyPair& operator_key() const { return operator_key_; }
  chain::Address address() const {
    return chain::Address::of(operator_key_.public_key());
  }
  topology::InterfaceKey key() const { return key_; }

  /// Chaos: stops participating — unsubscribes from deployment events,
  /// halts the data-plane service and abandons in-flight executions. The
  /// on-chain slot calendar SURVIVES: the chain has no liveness notion,
  /// so purchasers can still buy slots a dead executor will never serve.
  /// That hole is exactly what the initiator-side RetryPolicy covers.
  void kill();

  /// Returns to service after kill(): re-attaches the service,
  /// re-subscribes to deployment events, and tops up the slot calendar.
  /// Idempotent while alive.
  Status restart();

  bool alive() const { return alive_; }

  /// Chaos: publish results corrupted the chosen way so verification
  /// rejection paths run end-to-end. The data plane stays honest — only
  /// the published control-plane artifact lies. kHonest restores normal
  /// behaviour.
  void set_byzantine_mode(ByzantineMode mode) { byzantine_ = mode; }

 private:
  void subscribe();
  Status register_slots(SimTime from, SimTime until);
  /// Rolls the calendar forward: once it ends less than half a
  /// `slot_horizon` from now, registers slots up to now + `slot_horizon`.
  /// Runs on restart() and on every deployment, so an executor that sells
  /// no slot in the last half horizon of its calendar lets it lapse.
  Status top_up();
  void on_deployment_event(const chain::Event& event);
  void handle_application(chain::ObjectId application_id);
  executor::CertifiedResult corrupt(executor::CertifiedResult result) const;

  chain::Blockchain& chain_;
  simnet::SimulatedNetwork& network_;
  topology::InterfaceKey key_;
  crypto::KeyPair operator_key_;
  const SystemConfig* config_;
  std::unique_ptr<executor::ExecutorService> service_;
  chain::SubscriptionId subscription_ = 0;
  bool alive_ = true;
  ByzantineMode byzantine_ = ByzantineMode::kHonest;
  /// End of the last slot registered so far (a top-up registers only past
  /// this — RegisterTimeSlot rejects overlapping slots).
  SimTime slots_registered_until_ = 0;
};

/// The wired system.
class DebugletSystem {
 public:
  /// Takes ownership of a scenario (network + queue) and deploys executors
  /// at every border interface of every AS, funded and registered on-chain.
  DebugletSystem(simnet::Scenario scenario, SystemConfig config = {},
                 std::uint64_t seed = 0x5eed);

  simnet::EventQueue& queue() { return *scenario_.queue; }
  simnet::SimulatedNetwork& network() { return *scenario_.network; }
  chain::Blockchain& chain() { return chain_; }
  marketplace::MarketplaceContract& marketplace() { return *marketplace_; }

  /// The agent (and executor) at a border interface.
  Result<ExecutorAgent*> agent(topology::InterfaceKey key);

  /// All executor keys, sorted.
  std::vector<topology::InterfaceKey> executor_keys() const;

  /// The AS operator public key for an AS (all interfaces of an AS share
  /// the operator identity) — third parties verify result signatures
  /// against this.
  Result<crypto::PublicKey> as_public_key(topology::AsNumber asn) const;

 private:
  simnet::Scenario scenario_;
  SystemConfig config_;
  chain::Blockchain chain_;
  marketplace::MarketplaceContract* marketplace_ = nullptr;  // owned by chain_
  std::map<topology::AsNumber, crypto::KeyPair> operator_keys_;
  std::map<topology::InterfaceKey, std::unique_ptr<ExecutorAgent>> agents_;
};

}  // namespace debuglet::core
