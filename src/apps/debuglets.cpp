#include "apps/debuglets.hpp"

#include "vm/builder.hpp"

namespace debuglet::apps {

namespace {

using vm::FunctionBuilder;
using vm::ModuleBuilder;
using vm::Opcode;

// Declares the conventional named buffers on a builder. The built-in
// Debuglets report through the explicit dbg_output API, so they do NOT
// declare "output_buffer" — declaring it would make the executor fall back
// to dumping the whole (zero-filled) region when a run produces no samples.
void declare_buffers(ModuleBuilder& b) {
  b.memory(kMemorySize);
  b.add_buffer(vm::kUdpSendBuffer, kSendBufferOffset, kBufferSize);
  b.add_buffer(vm::kUdpReceiveBuffer, kRecvBufferOffset, kBufferSize);
}

// Pushes dbg_param(index).
void push_param(FunctionBuilder& f, std::int64_t index) {
  f.constant(index);
  f.call_host("dbg_param");
}

}  // namespace

std::vector<std::int64_t> ProbeClientParams::to_parameters() const {
  return {static_cast<std::int64_t>(protocol),
          static_cast<std::int64_t>(server.value),
          server_port,
          probe_count,
          interval_ms,
          recv_timeout_ms,
          payload_len};
}

std::vector<std::int64_t> EchoServerParams::to_parameters() const {
  return {static_cast<std::int64_t>(protocol), max_echoes, idle_timeout_ms};
}

std::vector<std::int64_t> OneWaySenderParams::to_parameters() const {
  return {static_cast<std::int64_t>(protocol),
          static_cast<std::int64_t>(receiver.value),
          receiver_port,
          packet_count,
          interval_ms,
          payload_len};
}

std::vector<std::int64_t> OneWayReceiverParams::to_parameters() const {
  return {static_cast<std::int64_t>(protocol), expected_packets,
          idle_timeout_ms};
}

vm::Module make_probe_client_debuglet() {
  // Locals: 0 = i (probes sent), 1 = received, 2 = t0, 3 = len, 4 = tmp.
  constexpr std::uint32_t kI = 0, kReceived = 1, kT0 = 2, kLen = 3, kTmp = 4;
  ModuleBuilder b;
  declare_buffers(b);
  FunctionBuilder& f = b.function(vm::kEntryPointName, 0, 5);

  const auto loop_top = f.make_label();
  const auto recv_retry = f.make_label();
  const auto after_record = f.make_label();
  const auto done = f.make_label();

  f.bind(loop_top);
  // if (i >= probe_count) goto done
  f.local_get(kI);
  push_param(f, 3);
  f.emit(Opcode::kGeS);
  f.jump_if(done);

  // t0 = dbg_now()
  f.call_host("dbg_now");
  f.local_set(kT0);

  // send_buffer[0..8) = i ; send_buffer[8..16) = t0
  f.constant(kSendBufferOffset);
  f.local_get(kI);
  f.emit(Opcode::kStore64, 0);
  f.constant(kSendBufferOffset);
  f.local_get(kT0);
  f.emit(Opcode::kStore64, 8);

  // dbg_send(proto, server, port, send_buffer, payload_len)
  push_param(f, 0);
  push_param(f, 1);
  push_param(f, 2);
  f.constant(kSendBufferOffset);
  push_param(f, 6);
  f.call_host("dbg_send");
  f.emit(Opcode::kDrop);

  // Receive loop: a duplicated or reordered echo of an EARLIER probe can
  // be sitting in the inbox, and a single recv would hand it to us here —
  // mismatching this probe's sequence and, worse, leaving our genuine
  // echo queued to poison the next probe the same way (one wire
  // duplicate would cascade into losing most of the batch). So drain:
  // stale and runt replies are discarded and the recv repeats with
  // whatever remains of this probe's listen window.
  f.bind(recv_retry);
  // tmp = recv_timeout_ms - (now - t0) ms; if exhausted, count lost
  f.call_host("dbg_now");
  f.local_get(kT0);
  f.emit(Opcode::kSub);
  f.constant(1'000'000);
  f.emit(Opcode::kDivS);
  f.local_set(kTmp);
  push_param(f, 5);
  f.local_get(kTmp);
  f.emit(Opcode::kSub);
  f.local_set(kTmp);
  f.local_get(kTmp);
  f.constant(0);
  f.emit(Opcode::kLeS);
  f.jump_if(after_record);

  // len = dbg_recv(proto, recv_buffer, cap, remaining)
  push_param(f, 0);
  f.constant(kRecvBufferOffset);
  f.constant(kBufferSize);
  f.local_get(kTmp);
  f.call_host("dbg_recv");
  f.local_set(kLen);

  // if (len < 0) goto after_record             — timed out, count lost
  f.local_get(kLen);
  f.constant(0);
  f.emit(Opcode::kLtS);
  f.jump_if(after_record);

  // if (len < 16) goto recv_retry              — runt reply, drain it
  f.local_get(kLen);
  f.constant(16);
  f.emit(Opcode::kLtS);
  f.jump_if(recv_retry);

  // if (recv_buffer.seq != i) goto recv_retry  — stale echo, drain it
  f.constant(kRecvBufferOffset);
  f.emit(Opcode::kLoad64, 0);
  f.local_get(kI);
  f.emit(Opcode::kNe);
  f.jump_if(recv_retry);

  // scratch = (seq, now - t0); dbg_output(scratch, 16)
  f.constant(kScratchOffset);
  f.local_get(kI);
  f.emit(Opcode::kStore64, 0);
  f.constant(kScratchOffset);
  f.call_host("dbg_now");
  f.local_get(kT0);
  f.emit(Opcode::kSub);
  f.emit(Opcode::kStore64, 8);
  f.constant(kScratchOffset);
  f.constant(16);
  f.call_host("dbg_output");
  f.emit(Opcode::kDrop);

  // received += 1
  f.local_get(kReceived);
  f.constant(1);
  f.emit(Opcode::kAdd);
  f.local_set(kReceived);

  f.bind(after_record);
  // i += 1
  f.local_get(kI);
  f.constant(1);
  f.emit(Opcode::kAdd);
  f.local_set(kI);
  // Keep the paper's one-probe-per-interval cadence regardless of RTT:
  // sleep(interval - elapsed_ms), clamped to >= 0 by the host.
  f.call_host("dbg_now");
  f.local_get(kT0);
  f.emit(Opcode::kSub);
  f.constant(1'000'000);
  f.emit(Opcode::kDivS);  // elapsed ms
  f.local_set(kTmp);
  push_param(f, 4);
  f.local_get(kTmp);
  f.emit(Opcode::kSub);
  f.call_host("dbg_sleep");
  f.emit(Opcode::kDrop);
  f.jump(loop_top);

  f.bind(done);
  f.local_get(kReceived);
  f.ret();
  return b.build();
}

vm::Module make_echo_server_debuglet() {
  // Locals: 0 = echoed, 1 = len, 2 = max_echoes.
  constexpr std::uint32_t kEchoed = 0, kLen = 1, kMax = 2;
  ModuleBuilder b;
  declare_buffers(b);
  FunctionBuilder& f = b.function(vm::kEntryPointName, 0, 3);

  const auto loop_top = f.make_label();
  const auto done = f.make_label();

  // max = dbg_param(1)
  push_param(f, 1);
  f.local_set(kMax);

  f.bind(loop_top);
  // len = dbg_recv(proto, recv_buffer, cap, idle_timeout)
  push_param(f, 0);
  f.constant(kRecvBufferOffset);
  f.constant(kBufferSize);
  push_param(f, 2);
  f.call_host("dbg_recv");
  f.local_set(kLen);

  // timeout → finish
  f.local_get(kLen);
  f.constant(0);
  f.emit(Opcode::kLtS);
  f.jump_if(done);

  // dbg_send(proto, last_sender, last_sender_port, recv_buffer, len)
  push_param(f, 0);
  f.call_host("dbg_last_sender");
  f.call_host("dbg_last_sender_port");
  f.constant(kRecvBufferOffset);
  f.local_get(kLen);
  f.call_host("dbg_send");
  f.emit(Opcode::kDrop);

  // echoed += 1
  f.local_get(kEchoed);
  f.constant(1);
  f.emit(Opcode::kAdd);
  f.local_set(kEchoed);

  // unbounded if max == 0
  f.local_get(kMax);
  f.emit(Opcode::kEqz);
  f.jump_if(loop_top);
  // continue while echoed < max
  f.local_get(kEchoed);
  f.local_get(kMax);
  f.emit(Opcode::kLtS);
  f.jump_if(loop_top);

  f.bind(done);
  // output the echo count
  f.constant(kScratchOffset);
  f.local_get(kEchoed);
  f.emit(Opcode::kStore64, 0);
  f.constant(kScratchOffset);
  f.constant(8);
  f.call_host("dbg_output");
  f.emit(Opcode::kDrop);
  f.local_get(kEchoed);
  f.ret();
  return b.build();
}

vm::Module make_oneway_sender_debuglet() {
  // Locals: 0 = i.
  constexpr std::uint32_t kI = 0;
  ModuleBuilder b;
  declare_buffers(b);
  FunctionBuilder& f = b.function(vm::kEntryPointName, 0, 1);

  const auto loop_top = f.make_label();
  const auto done = f.make_label();

  f.bind(loop_top);
  f.local_get(kI);
  push_param(f, 3);
  f.emit(Opcode::kGeS);
  f.jump_if(done);

  // payload = (seq, send timestamp)
  f.constant(kSendBufferOffset);
  f.local_get(kI);
  f.emit(Opcode::kStore64, 0);
  f.constant(kSendBufferOffset);
  f.call_host("dbg_now");
  f.emit(Opcode::kStore64, 8);

  push_param(f, 0);
  push_param(f, 1);
  push_param(f, 2);
  f.constant(kSendBufferOffset);
  push_param(f, 5);
  f.call_host("dbg_send");
  f.emit(Opcode::kDrop);

  f.local_get(kI);
  f.constant(1);
  f.emit(Opcode::kAdd);
  f.local_set(kI);
  push_param(f, 4);
  f.call_host("dbg_sleep");
  f.emit(Opcode::kDrop);
  f.jump(loop_top);

  f.bind(done);
  f.constant(kScratchOffset);
  f.local_get(kI);
  f.emit(Opcode::kStore64, 0);
  f.constant(kScratchOffset);
  f.constant(8);
  f.call_host("dbg_output");
  f.emit(Opcode::kDrop);
  f.local_get(kI);
  f.ret();
  return b.build();
}

vm::Module make_oneway_receiver_debuglet() {
  // Locals: 0 = received, 1 = len.
  constexpr std::uint32_t kReceived = 0, kLen = 1;
  ModuleBuilder b;
  declare_buffers(b);
  FunctionBuilder& f = b.function(vm::kEntryPointName, 0, 2);

  const auto loop_top = f.make_label();
  const auto done = f.make_label();

  f.bind(loop_top);
  // done when the expected count arrived
  f.local_get(kReceived);
  push_param(f, 1);
  f.emit(Opcode::kGeS);
  f.jump_if(done);

  push_param(f, 0);
  f.constant(kRecvBufferOffset);
  f.constant(kBufferSize);
  push_param(f, 2);
  f.call_host("dbg_recv");
  f.local_set(kLen);

  f.local_get(kLen);
  f.constant(16);
  f.emit(Opcode::kLtS);
  f.jump_if(done);  // idle timeout (or runt) ends the receiver

  // record (seq, now - embedded send time)
  f.constant(kScratchOffset);
  f.constant(kRecvBufferOffset);
  f.emit(Opcode::kLoad64, 0);
  f.emit(Opcode::kStore64, 0);
  f.constant(kScratchOffset);
  f.call_host("dbg_now");
  f.constant(kRecvBufferOffset);
  f.emit(Opcode::kLoad64, 8);
  f.emit(Opcode::kSub);
  f.emit(Opcode::kStore64, 8);
  f.constant(kScratchOffset);
  f.constant(16);
  f.call_host("dbg_output");
  f.emit(Opcode::kDrop);

  f.local_get(kReceived);
  f.constant(1);
  f.emit(Opcode::kAdd);
  f.local_set(kReceived);
  f.jump(loop_top);

  f.bind(done);
  f.local_get(kReceived);
  f.ret();
  return b.build();
}

vm::Module make_stats_debuglet() {
  // Locals: 0 = served, 1 = len, 2 = idx, 3 = max, 4 = chunks.
  constexpr std::uint32_t kServed = 0, kLen = 1, kIdx = 2, kMax = 3,
                          kChunks = 4;
  ModuleBuilder b;
  declare_buffers(b);
  FunctionBuilder& f = b.function(vm::kEntryPointName, 0, 5);

  const auto loop_top = f.make_label();
  const auto serve = f.make_label();
  const auto done = f.make_label();

  // max = dbg_param(3); chunks = dbg_metrics_prepare(chunk_payload)
  push_param(f, 3);
  f.local_set(kMax);
  push_param(f, 1);
  f.call_host("dbg_metrics_prepare");
  f.local_set(kChunks);

  f.bind(loop_top);
  // len = dbg_recv(proto, recv_buffer, cap, idle_timeout)
  push_param(f, 0);
  f.constant(kRecvBufferOffset);
  f.constant(kBufferSize);
  push_param(f, 2);
  f.call_host("dbg_recv");
  f.local_set(kLen);

  // idle timeout → finish
  f.local_get(kLen);
  f.constant(0);
  f.emit(Opcode::kLtS);
  f.jump_if(done);

  // runt request (no 8-byte index) → ignore
  f.local_get(kLen);
  f.constant(8);
  f.emit(Opcode::kLtS);
  f.jump_if(loop_top);

  // idx = recv_buffer[0..8)
  f.constant(kRecvBufferOffset);
  f.emit(Opcode::kLoad64, 0);
  f.local_set(kIdx);

  // A chunk-0 request starts a scrape session: re-freeze a fresh snapshot
  // so the scraper observes the registry at scrape time, not start time.
  f.local_get(kIdx);
  f.constant(0);
  f.emit(Opcode::kNe);
  f.jump_if(serve);
  push_param(f, 1);
  f.call_host("dbg_metrics_prepare");
  f.local_set(kChunks);

  f.bind(serve);
  // len = dbg_metrics_chunk(idx, send_buffer, cap)
  f.local_get(kIdx);
  f.constant(kSendBufferOffset);
  f.constant(kBufferSize);
  f.call_host("dbg_metrics_chunk");
  f.local_set(kLen);

  // bad index / buffer too small → ignore the request
  f.local_get(kLen);
  f.constant(0);
  f.emit(Opcode::kLtS);
  f.jump_if(loop_top);

  // dbg_send(proto, last_sender, last_sender_port, send_buffer, len)
  push_param(f, 0);
  f.call_host("dbg_last_sender");
  f.call_host("dbg_last_sender_port");
  f.constant(kSendBufferOffset);
  f.local_get(kLen);
  f.call_host("dbg_send");
  f.emit(Opcode::kDrop);

  // served += 1
  f.local_get(kServed);
  f.constant(1);
  f.emit(Opcode::kAdd);
  f.local_set(kServed);

  // unbounded if max == 0
  f.local_get(kMax);
  f.emit(Opcode::kEqz);
  f.jump_if(loop_top);
  f.local_get(kServed);
  f.local_get(kMax);
  f.emit(Opcode::kLtS);
  f.jump_if(loop_top);

  f.bind(done);
  // output (served, chunks)
  f.constant(kScratchOffset);
  f.local_get(kServed);
  f.emit(Opcode::kStore64, 0);
  f.constant(kScratchOffset);
  f.local_get(kChunks);
  f.emit(Opcode::kStore64, 8);
  f.constant(kScratchOffset);
  f.constant(16);
  f.call_host("dbg_output");
  f.emit(Opcode::kDrop);
  f.local_get(kServed);
  f.ret();
  return b.build();
}

namespace {

executor::Manifest base_manifest(net::Protocol protocol,
                                 net::Ipv4Address peer,
                                 std::int64_t packet_budget,
                                 SimDuration max_duration) {
  executor::Manifest m;
  // ~70 instructions plus ~10 host calls (32 fuel each) per probe loop
  // iteration; ×8 headroom so legitimate Debuglets never starve.
  m.cpu_fuel =
      static_cast<std::uint64_t>(std::max<std::int64_t>(packet_budget, 1)) *
          3200 +
      100'000;
  m.max_duration = max_duration;
  m.peak_memory = kMemorySize;
  m.max_packets_sent =
      static_cast<std::uint32_t>(std::max<std::int64_t>(packet_budget, 0));
  // The receive budget counts every packet HANDED to the sandbox, and the
  // probe client drains stale echoes — under wire-level duplication it
  // legitimately receives more than it sends. Budget headroom keeps a
  // duplicated wire from being a deployment-fatal event while still
  // bounding a flood.
  m.max_packets_received = 4 * m.max_packets_sent + 16;
  m.allowed_addresses = {peer};
  m.capabilities = {executor::capability_for(protocol),
                    executor::Capability::kClock,
                    executor::Capability::kRandom};
  return m;
}

}  // namespace

executor::Manifest client_manifest(net::Protocol protocol,
                                   net::Ipv4Address peer,
                                   std::int64_t probe_count,
                                   SimDuration max_duration) {
  return base_manifest(protocol, peer, probe_count, max_duration);
}

executor::Manifest server_manifest(net::Protocol protocol,
                                   net::Ipv4Address peer,
                                   std::int64_t packet_budget,
                                   SimDuration max_duration) {
  return base_manifest(protocol, peer, packet_budget, max_duration);
}

executor::Manifest stats_manifest(net::Protocol protocol,
                                  net::Ipv4Address scraper,
                                  std::int64_t request_budget,
                                  SimDuration max_duration) {
  executor::Manifest m =
      base_manifest(protocol, scraper, request_budget, max_duration);
  m.capabilities = {executor::capability_for(protocol),
                    executor::Capability::kHostMetrics};
  return m;
}

Result<std::vector<MeasurementSample>> decode_samples(BytesView output) {
  if (output.size() % 16 != 0)
    return fail("sample stream length " + std::to_string(output.size()) +
                " is not a multiple of 16");
  BytesReader r(output);
  std::vector<MeasurementSample> out;
  out.reserve(output.size() / 16);
  while (!r.exhausted()) {
    MeasurementSample s;
    auto seq = r.u64();
    if (!seq) return seq.error();
    s.sequence = *seq;
    auto delay = r.i64();
    if (!delay) return delay.error();
    s.delay_ns = *delay;
    out.push_back(s);
  }
  return out;
}

}  // namespace debuglet::apps
