// Ready-made Debuglet programs.
//
// These are the measurement applications the paper writes in Rust and
// compiles to WebAssembly (§V-A) — here composed as DVM bytecode with the
// module builder. Each program is parameterized through dbg_param(i), so
// one bytecode blob serves every measurement; the initiator supplies the
// peer address, protocol, probe count, and pacing per deployment.
//
// Probe payload layout (client <-> echo server):
//   bytes [0,8)  : probe sequence number (u64 LE)
//   bytes [8,16) : client send timestamp, ns (i64 LE)
//
// Result stream layouts (what dbg_output accumulates):
//   probe client   : 16 bytes per answered probe — (seq u64, rtt_ns i64)
//   echo server    : 8 bytes — total packets echoed (u64)
//   one-way sender : 8 bytes — packets sent (u64)
//   one-way recv   : 16 bytes per packet — (seq u64, one_way_delay_ns i64)
//   stats server   : 16 bytes — (requests served u64, chunk count u64)
#pragma once

#include <vector>

#include "executor/manifest.hpp"
#include "net/address.hpp"
#include "util/time.hpp"
#include "vm/module.hpp"

namespace debuglet::apps {

/// Memory layout shared by the built-in Debuglets.
inline constexpr std::uint32_t kMemorySize = 8192;
inline constexpr std::uint32_t kSendBufferOffset = 1024;
inline constexpr std::uint32_t kRecvBufferOffset = 2048;
inline constexpr std::uint32_t kBufferSize = 512;
inline constexpr std::uint32_t kScratchOffset = 3072;

/// Parameter indices of the probe client Debuglet.
struct ProbeClientParams {
  net::Protocol protocol = net::Protocol::kUdp;
  net::Ipv4Address server;
  std::uint16_t server_port = 0;
  std::int64_t probe_count = 10;
  std::int64_t interval_ms = 1000;
  std::int64_t recv_timeout_ms = 900;
  std::int64_t payload_len = 16;  // >= 16 (sequence + timestamp)

  std::vector<std::int64_t> to_parameters() const;
};

/// Parameter indices of the echo server Debuglet.
struct EchoServerParams {
  net::Protocol protocol = net::Protocol::kUdp;
  std::int64_t max_echoes = 0;       // 0 = until idle timeout
  std::int64_t idle_timeout_ms = 5000;

  std::vector<std::int64_t> to_parameters() const;
};

/// Parameters of the one-way measurement pair.
struct OneWaySenderParams {
  net::Protocol protocol = net::Protocol::kUdp;
  net::Ipv4Address receiver;
  std::uint16_t receiver_port = 0;
  std::int64_t packet_count = 10;
  std::int64_t interval_ms = 1000;
  std::int64_t payload_len = 16;

  std::vector<std::int64_t> to_parameters() const;
};

struct OneWayReceiverParams {
  net::Protocol protocol = net::Protocol::kUdp;
  std::int64_t expected_packets = 10;
  std::int64_t idle_timeout_ms = 5000;

  std::vector<std::int64_t> to_parameters() const;
};

/// Builds the probe client Debuglet: sends `probe_count` equal-payload
/// probes, matches echoed sequence numbers, records (seq, RTT) pairs.
vm::Module make_probe_client_debuglet();

/// Builds the echo server Debuglet: reflects every received probe back to
/// its sender until `max_echoes` or an idle timeout.
vm::Module make_echo_server_debuglet();

/// Builds the one-way sender: paced packets carrying send timestamps.
vm::Module make_oneway_sender_debuglet();

/// Builds the one-way receiver: records (seq, one-way delay) per packet.
vm::Module make_oneway_receiver_debuglet();

/// Builds the stats Debuglet: freezes the hosting executor's metrics
/// registry via dbg_metrics_prepare, then serves chunk requests (an
/// 8-byte LE chunk index per request packet) with obs::wire chunk
/// messages until max_requests or an idle timeout. A request for chunk 0
/// re-freezes a fresh snapshot, so each scrape session observes the
/// registry at scrape time; malformed and out-of-range requests are
/// ignored, never fatal. Parameters: 0 = protocol, 1 = snapshot bytes per
/// chunk (obs::wire payload size; must leave room for ~30 bytes of chunk
/// framing inside the 512-byte send buffer), 2 = idle timeout in ms,
/// 3 = max requests (0 = until the idle timeout).
vm::Module make_stats_debuglet();

/// A manifest sized for a probe-client/one-way-sender run against `peer`.
executor::Manifest client_manifest(net::Protocol protocol,
                                   net::Ipv4Address peer,
                                   std::int64_t probe_count,
                                   SimDuration max_duration);

/// A manifest sized for an echo-server/one-way-receiver run with `peer`
/// allowed as reply destination.
executor::Manifest server_manifest(net::Protocol protocol,
                                   net::Ipv4Address peer,
                                   std::int64_t packet_budget,
                                   SimDuration max_duration);

/// A manifest for the stats Debuglet: the protocol's I/O capability plus
/// Capability::kHostMetrics, with `scraper` as the one contactable peer.
executor::Manifest stats_manifest(net::Protocol protocol,
                                  net::Ipv4Address scraper,
                                  std::int64_t request_budget,
                                  SimDuration max_duration);

/// One decoded (sequence, delay) measurement sample.
struct MeasurementSample {
  std::uint64_t sequence = 0;
  std::int64_t delay_ns = 0;
};

/// Decodes a probe-client or one-way-receiver output stream.
Result<std::vector<MeasurementSample>> decode_samples(BytesView output);

}  // namespace debuglet::apps
