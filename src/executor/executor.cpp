#include "executor/executor.hpp"

#include <cmath>

#include "crypto/box.hpp"
#include "obs/trace.hpp"
#include "obs/wire.hpp"
#include "util/log.hpp"

namespace debuglet::executor {

namespace {

// Sandbox environment setup (~10 ms, §V-B) and the jitter of it and of
// each I/O boundary crossing, drawn as |N(0, sigma)| in nanoseconds.
constexpr SimDuration kSetupTime = duration::milliseconds(10);
constexpr double kSetupJitterNs = 200'000.0;     // ±0.2 ms
constexpr double kIoOverheadJitterNs = 5'000.0;  // ±5 µs

Result<net::Protocol> protocol_from_i64(std::int64_t v) {
  switch (v) {
    case static_cast<std::int64_t>(net::Protocol::kUdp):
      return net::Protocol::kUdp;
    case static_cast<std::int64_t>(net::Protocol::kTcp):
      return net::Protocol::kTcp;
    case static_cast<std::int64_t>(net::Protocol::kIcmp):
      return net::Protocol::kIcmp;
    case static_cast<std::int64_t>(net::Protocol::kRawIp):
      return net::Protocol::kRawIp;
    default:
      return fail("unknown protocol number " + std::to_string(v));
  }
}

}  // namespace

ExecutorService::ExecutorService(simnet::SimulatedNetwork& network,
                                 topology::InterfaceKey key,
                                 crypto::KeyPair as_key, ExecutorConfig config,
                                 std::uint64_t seed)
    : network_(network),
      key_(key),
      address_(network.topology().address_of(key)),
      as_key_(std::move(as_key)),
      config_(config),
      rng_(seed) {
  auto status = network_.attach_host(address_, this);
  if (!status)
    throw std::runtime_error("executor at " + key_.to_string() + ": " +
                             status.error_message());
  obs::MetricsRegistry& reg = obs::registry();
  const obs::Labels labels{{"as", std::to_string(key_.asn)},
                           {"intf", std::to_string(key_.interface)}};
  obs_.admitted = &reg.counter("executor.deployments_admitted", labels);
  obs_.rejected = &reg.counter("executor.deployments_rejected", labels);
  obs_.completed = &reg.counter("executor.deployments_completed", labels);
  obs_.failed = &reg.counter("executor.deployments_failed", labels);
  obs_.abandoned = &reg.counter("executor.deployments_abandoned", labels);
  obs_.active = &reg.gauge("executor.active_deployments", labels);
  // Timing and occupancy aggregate across executors (one histogram each).
  obs_.setup_ms = &reg.histogram("executor.sandbox_setup_ms");
  obs_.io_us = &reg.histogram("executor.host_call_io_us");
  obs_.inbox_depth = &reg.histogram("executor.inbox_depth");
}

ExecutorService::~ExecutorService() {
  if (!halted_) network_.detach_host(address_);
}

void ExecutorService::halt() {
  if (halted_) return;
  halted_ = true;
  network_.detach_host(address_);
  // Erasing without calling on_complete is the whole trick: every queued
  // lambda — start, sleep wake, recv timeout, io resume — looks its
  // deployment up by id and finds nothing, so abandonment is safe with
  // events in flight.
  if (deployments_.empty()) return;
  obs_.abandoned->add(deployments_.size());
  deployments_.clear();
  ports_.clear();
  obs_.active->set(0.0);
}

Status ExecutorService::revive() {
  if (!halted_) return ok_status();
  if (auto s = network_.attach_host(address_, this); !s) return s;
  halted_ = false;
  return ok_status();
}

Result<DeploymentId> ExecutorService::deploy(DebugletApp app) {
  auto id = admit(std::move(app));
  if (id) {
    obs_.admitted->add();
    obs_.active->set(static_cast<double>(deployments_.size()));
  } else {
    obs_.rejected->add();
  }
  return id;
}

Result<DeploymentId> ExecutorService::admit(DebugletApp app) {
  if (halted_)
    return fail("executor at " + key_.to_string() + " is halted");
  if (config_.max_concurrent_deployments != 0 &&
      deployments_.size() >= config_.max_concurrent_deployments)
    return fail("executor at capacity: " +
                std::to_string(config_.max_concurrent_deployments) +
                " active deployments");
  if (auto s = evaluate_manifest(app.manifest, config_.policy); !s)
    return fail("manifest rejected: " + s.error_message());

  auto module = vm::Module::parse(
      BytesView(app.module_bytes.data(), app.module_bytes.size()));
  if (!module) return fail("module rejected: " + module.error_message());

  vm::ValidationLimits limits;
  limits.max_memory = std::min(limits.max_memory, app.manifest.peak_memory);
  if (auto s = vm::validate(*module, limits); !s)
    return fail("module rejected: " + s.error_message());

  Deployment dep;
  dep.id = next_id_++;
  dep.port = app.listen_port != 0 ? app.listen_port : next_free_port();
  if (dep.port == 0)
    return fail("no free port in [" + std::to_string(kFirstAutoPort) +
                ", 65535]");
  if (!ports_.insert(dep.port).second)
    return fail("port " + std::to_string(dep.port) +
                " already in use by an active deployment");
  dep.app = std::move(app);
  dep.module = std::move(*module);
  const DeploymentId id = dep.id;
  deployments_.emplace(id, std::move(dep));
  return id;
}

std::uint16_t ExecutorService::next_free_port() {
  for (std::uint32_t n = 0; n <= 65535u - kFirstAutoPort; ++n) {
    const std::uint16_t port = next_port_;
    next_port_ = port == 65535 ? kFirstAutoPort : port + 1;
    if (!ports_.contains(port)) return port;
  }
  return 0;  // every port in the range is held
}

Status ExecutorService::schedule(DeploymentId id, SimTime start_time,
                                 CompletionCallback on_complete) {
  auto it = deployments_.find(id);
  if (it == deployments_.end())
    return fail("unknown deployment " + std::to_string(id));
  Deployment& dep = it->second;
  dep.scheduled_start = start_time;
  dep.on_complete = std::move(on_complete);
  network_.queue().schedule_at(start_time,
                               [this, id] { begin_execution(id); });
  return ok_status();
}

Result<DeploymentId> ExecutorService::deploy_and_schedule(
    DebugletApp app, SimTime start_time, CompletionCallback on_complete) {
  auto id = deploy(std::move(app));
  if (!id) return id;
  if (auto s = schedule(*id, start_time, std::move(on_complete)); !s)
    return s.error();
  return id;
}

SimDuration ExecutorService::io_delay() {
  const SimDuration d =
      config_.io_overhead +
      static_cast<SimDuration>(std::abs(rng_.normal(0.0, kIoOverheadJitterNs)));
  obs_.io_us->record(static_cast<double>(d) / 1000.0);
  return d;
}

std::vector<vm::HostFunction> ExecutorService::bind_host_api(Deployment& dep) {
  // Host closures capture the deployment by id and re-look it up on every
  // call: the Deployment lives in a std::map whose nodes are stable, but
  // re-lookup also guards against calls after erasure.
  const DeploymentId id = dep.id;

  auto require_capability = [this, id](Capability cap) -> Status {
    const Deployment& dep = deployments_.at(id);
    if (!dep.app.manifest.capabilities.contains(cap))
      return fail("manifest lacks capability '" + capability_name(cap) + "'");
    return ok_status();
  };

  std::vector<vm::HostFunction> api;

  api.push_back(vm::HostFunction{
      "dbg_now", 0,
      [this, require_capability](vm::Instance&,
                                 std::span<const std::int64_t>)
          -> Result<std::int64_t> {
        if (auto s = require_capability(Capability::kClock); !s)
          return s.error();
        return static_cast<std::int64_t>(network_.now());
      },
      false});

  api.push_back(vm::HostFunction{
      "dbg_rand", 0,
      [this, require_capability](vm::Instance&,
                                 std::span<const std::int64_t>)
          -> Result<std::int64_t> {
        if (auto s = require_capability(Capability::kRandom); !s)
          return s.error();
        return static_cast<std::int64_t>(rng_.next_u64());
      },
      false});

  api.push_back(vm::HostFunction{
      "dbg_param", 1,
      [this, id](vm::Instance&, std::span<const std::int64_t> args)
          -> Result<std::int64_t> {
        const Deployment& dep = deployments_.at(id);
        if (args[0] < 0 ||
            args[0] >= static_cast<std::int64_t>(dep.app.parameters.size()))
          return fail("parameter index " + std::to_string(args[0]) +
                      " out of range");
        return dep.app.parameters[static_cast<std::size_t>(args[0])];
      },
      false});

  api.push_back(vm::HostFunction{
      "dbg_param_count", 0,
      [this, id](vm::Instance&, std::span<const std::int64_t>)
          -> Result<std::int64_t> {
        return static_cast<std::int64_t>(
            deployments_.at(id).app.parameters.size());
      },
      false});

  api.push_back(vm::HostFunction{
      "dbg_local_addr", 0,
      [this](vm::Instance&, std::span<const std::int64_t>)
          -> Result<std::int64_t> {
        return static_cast<std::int64_t>(address_.value);
      },
      false});

  api.push_back(vm::HostFunction{
      "dbg_local_port", 0,
      [this, id](vm::Instance&, std::span<const std::int64_t>)
          -> Result<std::int64_t> {
        return deployments_.at(id).port;
      },
      false});

  api.push_back(vm::HostFunction{
      "dbg_last_sender", 0,
      [this, id](vm::Instance&, std::span<const std::int64_t>)
          -> Result<std::int64_t> {
        return deployments_.at(id).last_sender.value;
      },
      false});

  api.push_back(vm::HostFunction{
      "dbg_last_sender_port", 0,
      [this, id](vm::Instance&, std::span<const std::int64_t>)
          -> Result<std::int64_t> {
        return deployments_.at(id).last_sender_port;
      },
      false});

  api.push_back(vm::HostFunction{
      "dbg_output", 2,
      [this, id](vm::Instance& inst, std::span<const std::int64_t> args)
          -> Result<std::int64_t> {
        Deployment& dep = deployments_.at(id);
        if (args[0] < 0 || args[1] < 0) return fail("negative output range");
        auto data = inst.read_memory(static_cast<std::uint64_t>(args[0]),
                                     static_cast<std::uint64_t>(args[1]));
        if (!data) return data.error();
        dep.output_explicit = true;
        dep.output.insert(dep.output.end(), data->begin(), data->end());
        return 0;
      },
      false});

  api.push_back(vm::HostFunction{
      "dbg_send", 5,
      [this, id, require_capability](vm::Instance& inst,
                                     std::span<const std::int64_t> args)
          -> Result<std::int64_t> {
        Deployment& dep = deployments_.at(id);
        auto protocol = protocol_from_i64(args[0]);
        if (!protocol) return protocol.error();
        if (auto s = require_capability(capability_for(*protocol)); !s)
          return s.error();
        const net::Ipv4Address destination(
            static_cast<std::uint32_t>(args[1]));
        if (!dep.app.manifest.allows_address(destination))
          return fail("destination " + destination.to_string() +
                      " not in manifest allowlist");
        if (dep.packets_sent >= dep.app.manifest.max_packets_sent)
          return fail("packet send budget exhausted");
        if (args[3] < 0 || args[4] < 0) return fail("negative send range");
        auto payload = inst.read_memory(static_cast<std::uint64_t>(args[3]),
                                        static_cast<std::uint64_t>(args[4]));
        if (!payload) return payload.error();

        net::ProbeSpec spec;
        spec.protocol = *protocol;
        spec.source = address_;
        spec.destination = destination;
        spec.source_port = dep.port;
        spec.destination_port = static_cast<std::uint16_t>(args[2]);
        spec.sequence = static_cast<std::uint16_t>(dep.packets_sent);
        spec.tcp_sequence = static_cast<std::uint32_t>(rng_.next_u64());
        spec.payload = std::move(*payload);
        auto wire = net::build_probe(spec);
        if (!wire) return wire.error();

        ++dep.packets_sent;
        // The sandbox boundary costs a small constant before the packet
        // reaches the wire (Fig. 8's Go<->WA switching cost).
        network_.queue().schedule_after(
            io_delay(), [this, wire = std::move(*wire)]() mutable {
              auto s = network_.send(address_, std::move(wire));
              if (!s)
                DEBUGLET_LOG(kWarn, "executor")
                    << "send failed: " << s.error_message();
            });
        return 0;
      },
      false});

  api.push_back(vm::HostFunction{
      "dbg_metrics_prepare", 1,
      [this, id, require_capability](vm::Instance&,
                                     std::span<const std::int64_t> args)
          -> Result<std::int64_t> {
        if (auto s = require_capability(Capability::kHostMetrics); !s)
          return s.error();
        Deployment& dep = deployments_.at(id);
        if (args[0] < static_cast<std::int64_t>(obs::wire::kMinChunkPayload) ||
            args[0] > static_cast<std::int64_t>(obs::wire::kMaxChunkPayload))
          return fail("chunk payload " + std::to_string(args[0]) +
                      " outside [" +
                      std::to_string(obs::wire::kMinChunkPayload) + ", " +
                      std::to_string(obs::wire::kMaxChunkPayload) + "]");
        // Snapshot the ACTIVE registry — the one this executor's own
        // counters live in — and freeze its encoding so every chunk a
        // scraper fetches describes one consistent instant.
        dep.metrics_wire = obs::wire::encode_snapshot(obs::registry().snapshot());
        dep.metrics_chunk_payload = static_cast<std::uint32_t>(args[0]);
        const std::size_t count = obs::wire::chunk_count(
            dep.metrics_wire.size(), dep.metrics_chunk_payload);
        if (count > obs::wire::kMaxChunks)
          return fail("snapshot needs more than " +
                      std::to_string(obs::wire::kMaxChunks) + " chunks");
        return static_cast<std::int64_t>(count);
      },
      false});

  api.push_back(vm::HostFunction{
      "dbg_metrics_chunk", 3,
      [this, id, require_capability](vm::Instance& inst,
                                     std::span<const std::int64_t> args)
          -> Result<std::int64_t> {
        if (auto s = require_capability(Capability::kHostMetrics); !s)
          return s.error();
        Deployment& dep = deployments_.at(id);
        if (dep.metrics_wire.empty())
          return fail("dbg_metrics_chunk before dbg_metrics_prepare");
        if (args[1] < 0 || args[2] < 0)
          return fail("negative chunk destination range");
        const std::size_t count = obs::wire::chunk_count(
            dep.metrics_wire.size(), dep.metrics_chunk_payload);
        // Out-of-range indices come from the network (a scraper's request),
        // not from the Debuglet's own logic: report, don't trap.
        if (args[0] < 0 || args[0] >= static_cast<std::int64_t>(count))
          return -1;
        auto chunk = obs::wire::build_chunk(
            BytesView(dep.metrics_wire.data(), dep.metrics_wire.size()),
            static_cast<std::size_t>(args[0]), dep.metrics_chunk_payload);
        if (!chunk) return chunk.error();
        if (chunk->size() > static_cast<std::uint64_t>(args[2])) return -2;
        if (auto s = inst.write_memory(
                static_cast<std::uint64_t>(args[1]),
                BytesView(chunk->data(), chunk->size()));
            !s)
          return s.error();
        return static_cast<std::int64_t>(chunk->size());
      },
      false});

  // Async imports: the executor resumes these from network/timer events.
  api.push_back(vm::HostFunction{"dbg_recv", 4, nullptr, true});
  api.push_back(vm::HostFunction{"dbg_sleep", 1, nullptr, true});

  return api;
}

void ExecutorService::begin_execution(DeploymentId id) {
  if (!deployments_.contains(id)) return;

  const SimDuration setup =
      kSetupTime +
      static_cast<SimDuration>(std::abs(rng_.normal(0.0, kSetupJitterNs)));
  obs_.setup_ms->record(duration::to_ms(setup));

  network_.queue().schedule_after(setup, [this, id] {
    auto it = deployments_.find(id);
    if (it == deployments_.end()) return;
    Deployment& dep = it->second;
    dep.actual_start = network_.now();
    dep.deadline = dep.actual_start + dep.app.manifest.max_duration;

    vm::ExecutionLimits limits;
    limits.fuel = dep.app.manifest.cpu_fuel;
    auto instance = vm::Instance::create(std::move(dep.module),
                                         bind_host_api(dep), limits);
    if (!instance) {
      fail_deployment(dep, "instantiation: " + instance.error_message());
      return;
    }
    dep.instance = std::make_unique<vm::Instance>(std::move(*instance));
    auto execution = vm::Execution::start_entry(*dep.instance);
    if (!execution) {
      fail_deployment(dep, "start: " + execution.error_message());
      return;
    }
    dep.execution.emplace(std::move(*execution));
    pump(id);
  });
}

void ExecutorService::pump(DeploymentId id) {
  auto it = deployments_.find(id);
  while (it != deployments_.end() &&
         it->second.execution->state() == vm::Execution::State::kReady) {
    Deployment& dep = it->second;
    const auto state = dep.execution->step();
    if (state == vm::Execution::State::kDone) {
      finish(dep, dep.execution->outcome());
      return;
    }
    if (state == vm::Execution::State::kBlocked) {
      handle_block(dep);  // may finish the deployment, erasing it
      it = deployments_.find(id);
    }
  }
}

void ExecutorService::handle_block(Deployment& dep) {
  const vm::Execution::BlockInfo& block = dep.execution->block();
  if (network_.now() > dep.deadline) {
    fail_deployment(dep, "execution deadline exceeded");
    return;
  }

  if (block.import_name == "dbg_sleep") {
    // Negative durations clamp to zero so Debuglets can pace with
    // sleep(interval - elapsed) without guarding the subtraction.
    const std::int64_t ms =
        block.args.empty() ? 0 : std::max<std::int64_t>(block.args[0], 0);
    const SimTime wake =
        std::min(network_.now() + duration::milliseconds(ms), dep.deadline);
    const DeploymentId id = dep.id;
    network_.queue().schedule_at(wake, [this, id] {
      auto it = deployments_.find(id);
      if (it == deployments_.end()) return;
      Deployment& dep = it->second;
      if (network_.now() >= dep.deadline) {
        fail_deployment(dep, "execution deadline exceeded");
        return;
      }
      dep.execution->resume(0);
      pump(id);
    });
    return;
  }

  if (block.import_name == "dbg_recv") {
    auto protocol = protocol_from_i64(block.args[0]);
    if (!protocol) {
      dep.execution->fail("dbg_recv: " + protocol.error_message());
      finish(dep, dep.execution->outcome());
      return;
    }
    if (!dep.app.manifest.capabilities.contains(capability_for(*protocol))) {
      dep.execution->fail("dbg_recv: manifest lacks capability '" +
                          capability_name(capability_for(*protocol)) + "'");
      finish(dep, dep.execution->outcome());
      return;
    }
    dep.recv_protocol = *protocol;
    dep.recv_offset = static_cast<std::uint64_t>(block.args[1]);
    dep.recv_capacity = static_cast<std::uint64_t>(block.args[2]);
    const std::int64_t timeout_ms = block.args[3];

    // Serve from the inbox if a matching packet already arrived.
    for (auto it = dep.inbox.begin(); it != dep.inbox.end(); ++it) {
      if (it->protocol == *protocol) {
        net::Packet packet = std::move(*it);
        dep.inbox.erase(it);
        deliver_to_recv(dep, packet);
        return;
      }
    }

    dep.waiting_recv = true;
    const std::uint64_t token = ++dep.recv_token;
    const SimTime deadline =
        timeout_ms < 0
            ? dep.deadline
            : std::min(network_.now() + duration::milliseconds(timeout_ms),
                       dep.deadline);
    const DeploymentId id = dep.id;
    network_.queue().schedule_at(deadline, [this, id, token] {
      auto it = deployments_.find(id);
      if (it == deployments_.end()) return;
      Deployment& dep = it->second;
      if (!dep.waiting_recv || dep.recv_token != token) return;
      dep.waiting_recv = false;
      if (network_.now() >= dep.deadline) {
        fail_deployment(dep, "execution deadline exceeded");
        return;
      }
      dep.execution->resume(-1);  // timeout
      pump(id);
    });
    return;
  }

  dep.execution->fail("unknown async import '" + block.import_name + "'");
  finish(dep, dep.execution->outcome());
}

bool ExecutorService::packet_matches(const Deployment& dep,
                                     const net::Packet& packet) const {
  switch (packet.protocol) {
    case net::Protocol::kUdp:
      return packet.udp && packet.udp->destination_port == dep.port;
    case net::Protocol::kTcp:
      return packet.tcp && packet.tcp->destination_port == dep.port;
    case net::Protocol::kIcmp:
      // ICMP echo headers carry (dst port, src port) in
      // (identifier, sequence) — see net::build_probe.
      return packet.icmp && packet.icmp->identifier == dep.port;
    case net::Protocol::kRawIp:
      // Raw IP has no ports; deliver to deployments holding the capability.
      return dep.app.manifest.capabilities.contains(Capability::kRawIp);
  }
  return false;
}

void ExecutorService::deliver_to_recv(Deployment& dep,
                                      const net::Packet& packet) {
  if (dep.packets_received >= dep.app.manifest.max_packets_received) {
    fail_deployment(dep, "packet receive budget exhausted");
    return;
  }
  ++dep.packets_received;
  dep.last_sender = packet.ip.source;
  dep.last_sender_port = 0;
  if (packet.udp) dep.last_sender_port = packet.udp->source_port;
  if (packet.tcp) dep.last_sender_port = packet.tcp->source_port;
  if (packet.icmp) dep.last_sender_port = packet.icmp->sequence;

  const std::uint64_t n =
      std::min<std::uint64_t>(packet.payload.size(), dep.recv_capacity);
  auto s = dep.instance->write_memory(
      dep.recv_offset, BytesView(packet.payload.data(), n));
  if (!s) {
    dep.execution->fail("dbg_recv: " + s.error_message());
    finish(dep, dep.execution->outcome());
    return;
  }
  // Crossing the sandbox boundary costs the same small constant as send.
  const DeploymentId id = dep.id;
  network_.queue().schedule_after(io_delay(), [this, id, n] {
    auto it = deployments_.find(id);
    if (it == deployments_.end()) return;
    it->second.execution->resume(static_cast<std::int64_t>(n));
    pump(id);
  });
}

void ExecutorService::on_packet(const simnet::Delivery& delivery) {
  for (auto& [id, dep] : deployments_) {
    // Scheduled-but-not-yet-started deployments buffer their packets in
    // the inbox.
    if (!packet_matches(dep, delivery.packet)) continue;
    if (dep.waiting_recv && dep.recv_protocol == delivery.packet.protocol) {
      dep.waiting_recv = false;
      ++dep.recv_token;  // cancel the pending timeout
      deliver_to_recv(dep, delivery.packet);
    } else {
      if (dep.inbox.size() < config_.inbox_capacity)
        dep.inbox.push_back(delivery.packet);
      // else: inbox overflow, packet dropped (bounded memory per sandbox)
      obs_.inbox_depth->record(static_cast<double>(dep.inbox.size()));
    }
    return;
  }
  DEBUGLET_LOG(kDebug, "executor")
      << key_.to_string() << ": unmatched packet dropped";
}

void ExecutorService::finish(Deployment& dep, const vm::RunOutcome& outcome) {
  (outcome.trapped ? obs_.failed : obs_.completed)->add();
  if (obs::tracer().enabled()) {
    obs::Span span;
    span.name = "deployment#" + std::to_string(dep.id);
    span.category = "executor " + key_.to_string();
    // Deployments that fail before the sandbox starts have no actual_start;
    // anchor their span at the failure instant.
    span.sim_begin = dep.actual_start != 0 ? dep.actual_start : network_.now();
    span.sim_end = network_.now();
    obs::tracer().record(std::move(span));
  }

  ResultRecord record;
  record.application_id = dep.app.application_id;
  record.executor_key = key_;
  record.scheduled_start = dep.scheduled_start;
  record.actual_start = dep.actual_start;
  record.end_time = network_.now();
  record.exit_value = outcome.value;
  record.trapped = outcome.trapped;
  record.trap_message = outcome.trap_message;
  record.packets_sent = dep.packets_sent;
  record.packets_received = dep.packets_received;
  record.fuel_used = outcome.fuel_used;
  if (dep.output_explicit) {
    record.output = std::move(dep.output);
  } else if (dep.instance) {
    if (auto buf = dep.instance->read_buffer(vm::kOutputBuffer); buf)
      record.output = std::move(*buf);
  }

  // Private results (§IV-C): seal the output for the initiator's key so
  // the published record is unreadable by third parties. The signature
  // covers the sealed bytes — certification and privacy compose.
  if (dep.app.seal_output_for.size() == 32) {
    const crypto::PublicKey recipient{crypto::U256::from_be_bytes(
        BytesView(dep.app.seal_output_for.data(), 32))};
    record.output = crypto::seal_for(
        recipient, BytesView(record.output.data(), record.output.size()),
        rng_.next_u64());
  }

  // Erase before the callback, so a callback that deploys again finds the
  // capacity and port this deployment held. `dep` and `outcome` (which may
  // live inside it) are gone from here on.
  const CompletionCallback on_complete = std::move(dep.on_complete);
  const DeploymentId id = dep.id;
  const std::uint16_t port = dep.port;
  deployments_.erase(id);
  ports_.erase(port);
  obs_.active->set(static_cast<double>(deployments_.size()));
  const CertifiedResult certified = certify(record, as_key_);
  if (on_complete) on_complete(certified);
}

void ExecutorService::fail_deployment(Deployment& dep,
                                      const std::string& reason) {
  vm::RunOutcome outcome;
  outcome.trapped = true;
  outcome.trap = vm::TrapKind::kHostError;
  outcome.trap_message = reason;
  finish(dep, outcome);
}

}  // namespace debuglet::executor
