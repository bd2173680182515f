// The Debuglet executor service.
//
// One ExecutorService runs at each ⟨AS, interface⟩ co-located with a border
// router (paper §IV-B "Location of Executors"). It accepts Debuglet
// deployments (module bytes + manifest + parameters), validates and
// admission-checks them, instantiates the DVM sandbox at the scheduled
// time (charging the ~10 ms environment setup the paper measures in §V-B),
// bridges the sandbox's host API onto the simulated network, enforces the
// manifest at run time, and certifies the result with the hosting AS's key.
//
// Host API exposed to Debuglets (all values i64):
//   dbg_now()                              -> sim time, ns     [clock]
//   dbg_rand()                             -> random value     [random]
//   dbg_param(i)                           -> deployment parameter i
//   dbg_param_count()                      -> number of parameters
//   dbg_local_addr()                       -> executor IPv4 as integer
//   dbg_local_port()                       -> port assigned to deployment
//   dbg_send(proto, addr, port, off, len)  -> 0 / <0 error     [proto cap]
//   dbg_recv(proto, off, cap, timeout_ms)  -> len / -1 timeout [proto cap]  (async)
//   dbg_sleep(ms)                          -> 0                             (async)
//   dbg_last_sender()                      -> IPv4 of last dbg_recv packet
//   dbg_last_sender_port()                 -> port of last dbg_recv packet
//   dbg_output(off, len)                   -> 0; appends to the result
//   dbg_metrics_prepare(chunk_payload)     -> chunk count   [host-metrics]
//   dbg_metrics_chunk(i, off, cap)         -> wire len; -1 bad index,
//                                             -2 cap too small [host-metrics]
//
// dbg_metrics_prepare snapshots the hosting executor's metrics registry
// and freezes its wire encoding (obs/wire) for the deployment;
// dbg_metrics_chunk then copies chunk i's wire bytes into sandbox memory.
// Bad chunk requests return negative values instead of trapping, so a
// malformed scrape request cannot kill a serving stats Debuglet.
//
// If a Debuglet never calls dbg_output but declares the conventional
// "output_buffer", the buffer's full contents become the result.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "crypto/schnorr.hpp"
#include "executor/manifest.hpp"
#include "executor/result.hpp"
#include "obs/metrics.hpp"
#include "simnet/hosts.hpp"
#include "vm/interpreter.hpp"
#include "vm/validator.hpp"

namespace debuglet::executor {

/// Per-I/O boundary cost of the sandbox bridge (the ~300 µs/RTT Fig. 8
/// attributes to Go<->WA switching), admission limits and policy. The
/// ~10 ms environment setup of §V-B is fixed (executor.cpp).
struct ExecutorConfig {
  SimDuration io_overhead = duration::microseconds(80);
  std::uint32_t inbox_capacity = 256;        // queued packets per deployment
  /// Maximum concurrently active (accepted, unfinished) deployments — the
  /// data-plane counterpart of the slot calendar's finite resources
  /// ("only a limited number of requests can be accommodated at each
  /// executor", paper §IV-C). 0 = unlimited.
  std::uint32_t max_concurrent_deployments = 16;
  ExecutorPolicy policy;
};

/// Identifies one accepted deployment at an executor.
using DeploymentId = std::uint64_t;

/// Ports an executor assigns on its own cycle through [kFirstAutoPort,
/// 65535], skipping those live deployments hold, so they never reach the
/// rendezvous ports initiators request below this range.
inline constexpr std::uint16_t kFirstAutoPort = 50000;

/// What the initiator submits (paper: bytecode string + manifest).
struct DebugletApp {
  std::uint64_t application_id = 0;  // marketplace object ID
  Bytes module_bytes;                // serialized DVM module
  Manifest manifest;
  std::vector<std::int64_t> parameters;  // dbg_param(i) values
  /// Requested listen port (0 = executor assigns one from kFirstAutoPort
  /// up). Rejected if another active deployment already holds it.
  std::uint16_t listen_port = 0;
  /// When non-empty: a 32-byte public key; the executor seals the result
  /// output for it before certification (paper §IV-C private results).
  Bytes seal_output_for;
};

/// Terminal state of one deployment, passed to the completion callback.
using CompletionCallback = std::function<void(const CertifiedResult&)>;

/// The executor service at one border interface.
class ExecutorService : public simnet::Host {
 public:
  /// Attaches to the network at the border-interface address of `key`.
  /// `as_key` is the hosting AS's signing key.
  ExecutorService(simnet::SimulatedNetwork& network, topology::InterfaceKey key,
                  crypto::KeyPair as_key, ExecutorConfig config,
                  std::uint64_t seed);
  ~ExecutorService() override;

  ExecutorService(const ExecutorService&) = delete;
  ExecutorService& operator=(const ExecutorService&) = delete;

  /// Validates the module and evaluates the manifest against policy.
  /// On success the Debuglet is accepted and assigned a port.
  Result<DeploymentId> deploy(DebugletApp app);

  /// Schedules an accepted deployment to start at `start_time`. The
  /// callback fires (in simulated time) when execution finishes.
  Status schedule(DeploymentId id, SimTime start_time,
                  CompletionCallback on_complete);

  /// Convenience: deploy + schedule.
  Result<DeploymentId> deploy_and_schedule(DebugletApp app, SimTime start_time,
                                           CompletionCallback on_complete);

  void on_packet(const simnet::Delivery& delivery) override;

  topology::InterfaceKey key() const { return key_; }
  net::Ipv4Address address() const { return address_; }
  const crypto::PublicKey& public_key() const { return as_key_.public_key(); }

  /// Number of deployments not yet finished.
  std::size_t active_deployments() const { return deployments_.size(); }

  /// Chaos: takes the executor out of service — detaches from the network
  /// and abandons every unfinished deployment (no result is ever certified
  /// for them; their purchasers see a missing ResultReady). New deploys
  /// are rejected until revive(). Idempotent. The service object stays
  /// alive so events already queued against it resolve harmlessly.
  void halt();

  /// Returns a halted executor to service: re-attaches at its address and
  /// accepts deployments again. Abandoned deployments stay abandoned.
  Status revive();

 private:
  /// A deployment exists from admit() until it finishes or is abandoned;
  /// then it is erased, sandbox and all. Queued events carry its id and
  /// stop when the lookup finds nothing.
  struct Deployment {
    DeploymentId id = 0;
    DebugletApp app;
    vm::Module module;  // parsed and validated by admit()
    std::uint16_t port = 0;
    SimTime scheduled_start = 0;
    SimTime actual_start = 0;
    SimTime deadline = 0;
    std::unique_ptr<vm::Instance> instance;
    std::optional<vm::Execution> execution;
    CompletionCallback on_complete;
    // Runtime accounting against the manifest.
    std::uint32_t packets_sent = 0;
    std::uint32_t packets_received = 0;
    Bytes output;
    bool output_explicit = false;
    // I/O state.
    std::deque<net::Packet> inbox;
    bool waiting_recv = false;
    net::Protocol recv_protocol = net::Protocol::kUdp;
    std::uint64_t recv_offset = 0;
    std::uint64_t recv_capacity = 0;
    std::uint64_t recv_token = 0;  // invalidates stale timeout events
    net::Ipv4Address last_sender;
    std::uint16_t last_sender_port = 0;
    // Frozen registry snapshot (set by dbg_metrics_prepare; empty before).
    Bytes metrics_wire;
    std::uint32_t metrics_chunk_payload = 0;
  };

  std::vector<vm::HostFunction> bind_host_api(Deployment& dep);
  Result<DeploymentId> admit(DebugletApp app);
  std::uint16_t next_free_port();
  void begin_execution(DeploymentId id);
  void pump(DeploymentId id);
  void handle_block(Deployment& dep);
  void finish(Deployment& dep, const vm::RunOutcome& outcome);
  void fail_deployment(Deployment& dep, const std::string& reason);
  bool packet_matches(const Deployment& dep, const net::Packet& packet) const;
  void deliver_to_recv(Deployment& dep, const net::Packet& packet);
  SimDuration io_delay();

  simnet::SimulatedNetwork& network_;
  topology::InterfaceKey key_;
  net::Ipv4Address address_;
  crypto::KeyPair as_key_;
  ExecutorConfig config_;
  Rng rng_;
  std::map<DeploymentId, Deployment> deployments_;
  std::set<std::uint16_t> ports_;  // the port of every live deployment
  DeploymentId next_id_ = 1;
  std::uint16_t next_port_ = kFirstAutoPort;
  bool halted_ = false;
  // Observability handles cached at construction (no-ops while disabled).
  struct ObsHandles {
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* abandoned = nullptr;
    obs::Histogram* setup_ms = nullptr;
    obs::Histogram* io_us = nullptr;
    obs::Histogram* inbox_depth = nullptr;
    obs::Gauge* active = nullptr;
  };
  ObsHandles obs_;
};

}  // namespace debuglet::executor
