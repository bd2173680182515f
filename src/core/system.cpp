#include "core/system.hpp"

#include "util/log.hpp"

namespace debuglet::core {

namespace {

/// Funding minted to each AS operator account at startup.
constexpr chain::Mist kOperatorFunding = 2'000'000'000'000;  // 2000 SUI

}  // namespace

ExecutorAgent::ExecutorAgent(chain::Blockchain& chain,
                             simnet::SimulatedNetwork& network,
                             topology::InterfaceKey key,
                             crypto::KeyPair operator_key,
                             const SystemConfig& config)
    : chain_(chain),
      network_(network),
      key_(key),
      operator_key_(std::move(operator_key)),
      config_(&config) {
  service_ = std::make_unique<executor::ExecutorService>(
      network_, key_, operator_key_, config.executor,
      0xE0ECu ^ (static_cast<std::uint64_t>(key.asn) << 16) ^ key.interface);
  subscribe();
}

void ExecutorAgent::subscribe() {
  subscription_ = chain_.subscribe(
      marketplace::kContractName, marketplace::kEventDebugletDeployed,
      key_.to_string(),
      [this](const chain::Event& event) { on_deployment_event(event); });
}

Status ExecutorAgent::register_slots(SimTime from, SimTime until) {
  if (until <= from) return ok_status();
  // Whole slots from `from`: the last may end past `until`.
  const marketplace::SlotRun run{
      {.cores = 2, .memory_bytes = 1 << 20, .bandwidth_bps = 100'000'000,
       .start = from, .end = from + kSlotLength, .price = config_->slot_price},
      static_cast<std::uint32_t>((until - from + kSlotLength - 1) /
                                 kSlotLength)};
  auto slot_receipt = chain_.submit(chain_.make_transaction(
      operator_key_, marketplace::kContractName, "RegisterTimeSlot",
      marketplace::RegisterTimeSlotArgs{key_, {run}}.serialize(), 0,
      1'000'000'000, marketplace::access_register_time_slot(key_)));
  if (!slot_receipt) return slot_receipt.error();
  if (!slot_receipt->success)
    return fail("RegisterTimeSlot: " + slot_receipt->error);
  slots_registered_until_ = run.end();
  return ok_status();
}

Status ExecutorAgent::top_up() {
  const SimTime now = network_.queue().now();
  if (slots_registered_until_ - now >= config_->slot_horizon / 2)
    return ok_status();
  return register_slots(std::max(slots_registered_until_, now),
                        now + config_->slot_horizon);
}

Status ExecutorAgent::bootstrap(SimTime horizon_start) {
  marketplace::RegisterExecutorArgs reg{key_};
  auto receipt = chain_.submit(chain_.make_transaction(
      operator_key_, marketplace::kContractName, "RegisterExecutor",
      reg.serialize(), 0, 1'000'000'000,
      marketplace::access_register_executor(key_)));
  if (!receipt) return receipt.error();
  if (!receipt->success) return fail("RegisterExecutor: " + receipt->error);
  return register_slots(horizon_start, horizon_start + config_->slot_horizon);
}

void ExecutorAgent::kill() {
  if (!alive_) return;
  alive_ = false;
  chain_.unsubscribe(subscription_);
  subscription_ = 0;
  service_->halt();
  obs::registry()
      .counter("core.agent_kills",
               {{"as", std::to_string(key_.asn)},
                {"intf", std::to_string(key_.interface)}})
      .add();
  DEBUGLET_LOG(kInfo, "agent") << key_.to_string() << ": killed";
}

Status ExecutorAgent::restart() {
  if (alive_) return ok_status();
  if (auto s = service_->revive(); !s) return s;
  subscribe();
  alive_ = true;
  obs::registry()
      .counter("core.agent_restarts",
               {{"as", std::to_string(key_.asn)},
                {"intf", std::to_string(key_.interface)}})
      .add();
  // The calendar registered before the kill is still on-chain (slots are
  // not liveness-aware); top_up() renews it if less than half is left.
  if (auto s = top_up(); !s) return s;
  DEBUGLET_LOG(kInfo, "agent") << key_.to_string() << ": restarted";
  return ok_status();
}

executor::CertifiedResult ExecutorAgent::corrupt(
    executor::CertifiedResult result) const {
  switch (byzantine_) {
    case ByzantineMode::kHonest:
      break;
    case ByzantineMode::kBadSignature: {
      // Flip the low bit of the signature's response scalar: the record
      // is intact but certification no longer checks out.
      Bytes sig = result.signature.to_bytes();
      if (!sig.empty()) sig.back() ^= 0x01;
      if (auto parsed = crypto::Signature::from_bytes(
              BytesView(sig.data(), sig.size()));
          parsed)
        result.signature = *parsed;
      break;
    }
    case ByzantineMode::kTamperedOutput:
      // Mutate the measurement after signing: the signature itself is
      // genuine but no longer covers what the record now claims.
      if (result.record.output.empty())
        result.record.output.push_back(0xFF);
      else
        result.record.output.front() ^= 0xFF;
      break;
  }
  return result;
}

void ExecutorAgent::on_deployment_event(const chain::Event& event) {
  BytesReader r(BytesView(event.payload.data(), event.payload.size()));
  auto app_id = r.u64();
  if (!app_id) {
    DEBUGLET_LOG(kError, "agent") << "bad deployment event payload";
    return;
  }
  // The event fires synchronously inside the purchase transaction; the
  // executor observes it after the chain's finality latency.
  const chain::ObjectId id = *app_id;
  network_.queue().schedule_after(chain::kFinalityLatency,
                                  [this, id] { handle_application(id); });
}

void ExecutorAgent::handle_application(chain::ObjectId application_id) {
  auto data = chain_.read_object(application_id);
  if (!data) {
    DEBUGLET_LOG(kError, "agent")
        << key_.to_string() << ": " << data.error_message();
    return;
  }
  auto object = marketplace::ApplicationObject::parse(
      BytesView(data->data(), data->size()));
  if (!object) {
    DEBUGLET_LOG(kError, "agent")
        << key_.to_string() << ": " << object.error_message();
    return;
  }
  if (!(object->executor_key == key_)) return;  // not ours

  auto manifest = executor::Manifest::parse(
      BytesView(object->payload.manifest.data(),
                object->payload.manifest.size()));
  if (!manifest) {
    DEBUGLET_LOG(kError, "agent")
        << key_.to_string() << ": manifest: " << manifest.error_message();
    return;
  }

  executor::DebugletApp app;
  app.application_id = application_id;
  app.module_bytes = object->payload.bytecode;
  app.manifest = *manifest;
  app.parameters = object->payload.parameters;
  app.listen_port = object->payload.listen_port;
  app.seal_output_for = object->payload.seal_output_for;

  // The agent has no timer: each deployment keeps the calendar rolling.
  if (auto s = top_up(); !s)
    DEBUGLET_LOG(kWarn, "agent")
        << key_.to_string() << ": slot top-up failed: " << s.error_message();
  const SimTime start =
      std::max(object->window_start, network_.queue().now());
  auto deployment = service_->deploy_and_schedule(
      std::move(app), start,
      [this, application_id](const executor::CertifiedResult& result) {
        executor::CertifiedResult published = result;
        if (byzantine_ != ByzantineMode::kHonest) {
          published = corrupt(std::move(published));
          obs::registry()
              .counter("core.byzantine_results_published",
                       {{"as", std::to_string(key_.asn)},
                        {"intf", std::to_string(key_.interface)}})
              .add();
        }
        marketplace::ResultReadyArgs args;
        args.application = application_id;
        args.result = published.serialize();
        auto receipt = chain_.submit(chain_.make_transaction(
            operator_key_, marketplace::kContractName, "ResultReady",
            args.serialize(), 0, 1'000'000'000,
            marketplace::access_result_ready(application_id)));
        if (!receipt || !receipt->success) {
          DEBUGLET_LOG(kError, "agent")
              << key_.to_string() << ": ResultReady failed: "
              << (receipt ? receipt->error : receipt.error_message());
        }
      });
  if (!deployment) {
    DEBUGLET_LOG(kWarn, "agent")
        << key_.to_string() << ": rejected application "
        << application_id << ": " << deployment.error_message();
  }
}

DebugletSystem::DebugletSystem(simnet::Scenario scenario, SystemConfig config,
                               std::uint64_t seed)
    : scenario_(std::move(scenario)), config_(config) {
  chain_.set_clock(
      [queue = scenario_.queue.get()] { return queue->now(); });

  auto contract = std::make_unique<marketplace::MarketplaceContract>();
  marketplace_ = contract.get();
  if (auto s = chain_.register_contract(std::move(contract)); !s)
    throw std::runtime_error(s.error_message());

  // Accountability sidecar: the marketplace quote/purchase paths read its
  // strike records cross-contract to price-penalize implicated ASes.
  if (auto s = chain_.register_contract(
          std::make_unique<marketplace::ReputationContract>());
      !s)
    throw std::runtime_error(s.error_message());

  const auto& topo = scenario_.network->topology();
  for (topology::AsNumber asn : topo.as_numbers()) {
    auto key_pair = crypto::KeyPair::from_seed(seed ^ (0xA5ULL << 32) ^ asn);
    chain_.mint(chain::Address::of(key_pair.public_key()), kOperatorFunding);
    operator_keys_.emplace(asn, key_pair);
    for (topology::InterfaceId intf : topo.interfaces_of(asn)) {
      const topology::InterfaceKey key{asn, intf};
      auto agent = std::make_unique<ExecutorAgent>(chain_, *scenario_.network,
                                                   key, key_pair, config_);
      if (auto s = agent->bootstrap(scenario_.queue->now()); !s)
        throw std::runtime_error("bootstrap " + key.to_string() + ": " +
                                 s.error_message());
      agents_.emplace(key, std::move(agent));
    }
  }
}

Result<ExecutorAgent*> DebugletSystem::agent(topology::InterfaceKey key) {
  auto it = agents_.find(key);
  if (it == agents_.end())
    return fail("no executor at " + key.to_string());
  return it->second.get();
}

std::vector<topology::InterfaceKey> DebugletSystem::executor_keys() const {
  std::vector<topology::InterfaceKey> out;
  out.reserve(agents_.size());
  for (const auto& [key, _] : agents_) out.push_back(key);
  return out;
}

Result<crypto::PublicKey> DebugletSystem::as_public_key(
    topology::AsNumber asn) const {
  auto it = operator_keys_.find(asn);
  if (it == operator_keys_.end())
    return fail("unknown AS" + std::to_string(asn));
  return it->second.public_key();
}

}  // namespace debuglet::core
