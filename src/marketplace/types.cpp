#include "marketplace/types.hpp"

#include <algorithm>
#include <limits>

#include "crypto/schnorr.hpp"

namespace debuglet::marketplace {

namespace {

// Generic helpers so each codec stays a flat, readable field list.
#define DBG_TRY(var, expr)            \
  auto var = (expr);                  \
  if (!var) return var.error()

void write_params(BytesWriter& w, const std::vector<std::int64_t>& params) {
  w.varint(params.size());
  for (std::int64_t p : params) w.i64(p);
}

constexpr std::uint64_t kMaxRegisteredSlots = 65536;  // per RegisterTimeSlot

// Run arithmetic is modulo 2^64. For a run that fits in SimTime every value
// it forms (offsets, slot starts and ends, the run's end) is exact, and the
// conversion back to SimTime is well defined.
std::uint64_t as_u64(SimTime t) { return static_cast<std::uint64_t>(t); }
SimTime as_time(std::uint64_t v) { return static_cast<SimTime>(v); }

Result<std::vector<std::int64_t>> read_params(BytesReader& r) {
  DBG_TRY(count, r.varint());
  if (*count > 1024) return fail("too many parameters");
  std::vector<std::int64_t> out;
  out.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    DBG_TRY(v, r.i64());
    out.push_back(*v);
  }
  return out;
}

}  // namespace

void write_key(BytesWriter& w, topology::InterfaceKey key) {
  w.u32(key.asn);
  w.u16(key.interface);
}

Result<topology::InterfaceKey> read_key(BytesReader& r) {
  DBG_TRY(asn, r.u32());
  DBG_TRY(intf, r.u16());
  return topology::InterfaceKey{*asn, *intf};
}

void write_slot(BytesWriter& w, const TimeSlot& slot) {
  w.u32(slot.cores);
  w.u64(slot.memory_bytes);
  w.u64(slot.bandwidth_bps);
  w.i64(slot.start);
  w.i64(slot.end);
  w.u64(slot.price);
}

Result<TimeSlot> read_slot(BytesReader& r) {
  TimeSlot s;
  DBG_TRY(cores, r.u32());
  s.cores = *cores;
  DBG_TRY(memory, r.u64());
  s.memory_bytes = *memory;
  DBG_TRY(bw, r.u64());
  s.bandwidth_bps = *bw;
  DBG_TRY(start, r.i64());
  s.start = *start;
  DBG_TRY(end, r.i64());
  s.end = *end;
  DBG_TRY(price, r.u64());
  s.price = *price;
  return s;
}

std::uint64_t SlotRun::length() const {
  return as_u64(first.end) - as_u64(first.start);
}

TimeSlot SlotRun::slot(std::uint64_t k) const {
  TimeSlot s = first;
  s.start = as_time(as_u64(first.start) + k * length());
  s.end = as_time(as_u64(s.start) + length());
  return s;
}

std::uint64_t SlotRun::index_at(SimTime t) const {
  return (as_u64(t) - as_u64(start())) / length();
}

Status check_run(const SlotRun& run) {
  if (run.count == 0) return fail("empty slot run");
  if (run.first.end <= run.first.start)
    return fail("slot with non-positive duration");
  const std::uint64_t room =
      as_u64(std::numeric_limits<SimTime>::max()) - as_u64(run.start());
  if (run.count > room / run.length())
    return fail("slot run ends past the time range");
  return ok_status();
}

void write_run(BytesWriter& w, const SlotRun& run) {
  write_slot(w, run.first);
  w.u32(run.count);
}

Result<SlotRun> read_run(BytesReader& r) {
  DBG_TRY(first, read_slot(r));
  DBG_TRY(count, r.u32());
  const SlotRun run{*first, *count};
  if (auto s = check_run(run); !s) return s.error();
  return run;
}

Bytes RegisterExecutorArgs::serialize() const {
  BytesWriter w;
  write_key(w, key);
  return w.take();
}

Result<RegisterExecutorArgs> RegisterExecutorArgs::parse(BytesView data) {
  BytesReader r(data);
  DBG_TRY(key, read_key(r));
  if (!r.exhausted()) return fail("RegisterExecutor: trailing bytes");
  return RegisterExecutorArgs{*key};
}

Bytes RegisterTimeSlotArgs::serialize() const {
  BytesWriter w;
  write_key(w, key);
  w.varint(runs.size());
  for (const SlotRun& run : runs) write_run(w, run);
  return w.take();
}

Result<RegisterTimeSlotArgs> RegisterTimeSlotArgs::parse(BytesView data) {
  BytesReader r(data);
  RegisterTimeSlotArgs out;
  DBG_TRY(key, read_key(r));
  out.key = *key;
  DBG_TRY(count, r.varint());
  out.runs.reserve(std::min<std::uint64_t>(*count, r.remaining() / kRunBytes));
  std::uint64_t slots = 0;
  for (std::uint64_t i = 0; i < *count; ++i) {
    DBG_TRY(run, read_run(r));
    slots += run->count;
    if (slots > kMaxRegisteredSlots)
      return fail("RegisterTimeSlot: too many slots");
    out.runs.push_back(*run);
  }
  if (!r.exhausted()) return fail("RegisterTimeSlot: trailing bytes");
  return out;
}

Bytes LookupSlotArgs::serialize() const {
  BytesWriter w;
  write_key(w, client_key);
  write_key(w, server_key);
  w.u32(cores);
  w.u64(memory_bytes);
  w.u64(bandwidth_bps);
  w.i64(earliest_start);
  return w.take();
}

Result<LookupSlotArgs> LookupSlotArgs::parse(BytesView data) {
  BytesReader r(data);
  LookupSlotArgs out;
  DBG_TRY(ck, read_key(r));
  out.client_key = *ck;
  DBG_TRY(sk, read_key(r));
  out.server_key = *sk;
  DBG_TRY(cores, r.u32());
  out.cores = *cores;
  DBG_TRY(memory, r.u64());
  out.memory_bytes = *memory;
  DBG_TRY(bw, r.u64());
  out.bandwidth_bps = *bw;
  DBG_TRY(earliest, r.i64());
  out.earliest_start = *earliest;
  if (!r.exhausted()) return fail("LookupSlot: trailing bytes");
  return out;
}

Bytes SlotQuote::serialize() const {
  BytesWriter w;
  w.u8(found ? 1 : 0);
  write_slot(w, client_slot);
  write_slot(w, server_slot);
  w.i64(window_start);
  w.i64(window_end);
  w.u64(total_price);
  w.u64(list_price);
  w.u32(client_strikes);
  w.u32(server_strikes);
  return w.take();
}

Result<SlotQuote> SlotQuote::parse(BytesView data) {
  BytesReader r(data);
  SlotQuote out;
  DBG_TRY(found, r.u8());
  if (*found > 1) return fail("SlotQuote: bad found flag");
  out.found = *found == 1;
  DBG_TRY(cs, read_slot(r));
  out.client_slot = *cs;
  DBG_TRY(ss, read_slot(r));
  out.server_slot = *ss;
  DBG_TRY(ws, r.i64());
  out.window_start = *ws;
  DBG_TRY(we, r.i64());
  out.window_end = *we;
  DBG_TRY(price, r.u64());
  out.total_price = *price;
  DBG_TRY(list, r.u64());
  out.list_price = *list;
  DBG_TRY(cstrikes, r.u32());
  out.client_strikes = *cstrikes;
  DBG_TRY(sstrikes, r.u32());
  out.server_strikes = *sstrikes;
  if (!r.exhausted()) return fail("SlotQuote: trailing bytes");
  return out;
}

Bytes ApplicationPayload::serialize() const {
  BytesWriter w;
  w.blob(BytesView(bytecode.data(), bytecode.size()));
  w.blob(BytesView(manifest.data(), manifest.size()));
  write_params(w, parameters);
  w.u16(listen_port);
  w.blob(BytesView(seal_output_for.data(), seal_output_for.size()));
  return w.take();
}

Result<ApplicationPayload> ApplicationPayload::parse(BytesView data) {
  BytesReader r(data);
  ApplicationPayload out;
  DBG_TRY(bytecode, r.blob());
  out.bytecode = std::move(*bytecode);
  DBG_TRY(manifest, r.blob());
  out.manifest = std::move(*manifest);
  DBG_TRY(params, read_params(r));
  out.parameters = std::move(*params);
  DBG_TRY(port, r.u16());
  out.listen_port = *port;
  DBG_TRY(seal_key, r.blob());
  if (!seal_key->empty()) {
    if (seal_key->size() != 32)
      return fail("ApplicationPayload: seal key must be 32 bytes");
    if (!crypto::valid_public_key(crypto::U256::from_be_bytes(
            BytesView(seal_key->data(), seal_key->size()))))
      return fail("ApplicationPayload: seal key is not a public key in "
                  "[2, p-2]");
  }
  out.seal_output_for = std::move(*seal_key);
  if (!r.exhausted()) return fail("ApplicationPayload: trailing bytes");
  return out;
}

Bytes PurchaseSlotArgs::serialize() const {
  BytesWriter w;
  write_key(w, client_key);
  write_key(w, server_key);
  write_slot(w, client_slot);
  write_slot(w, server_slot);
  const Bytes ca = client_app.serialize();
  w.blob(BytesView(ca.data(), ca.size()));
  const Bytes sa = server_app.serialize();
  w.blob(BytesView(sa.data(), sa.size()));
  return w.take();
}

Result<PurchaseSlotArgs> PurchaseSlotArgs::parse(BytesView data) {
  BytesReader r(data);
  PurchaseSlotArgs out;
  DBG_TRY(ck, read_key(r));
  out.client_key = *ck;
  DBG_TRY(sk, read_key(r));
  out.server_key = *sk;
  DBG_TRY(cs, read_slot(r));
  out.client_slot = *cs;
  DBG_TRY(ss, read_slot(r));
  out.server_slot = *ss;
  DBG_TRY(ca, r.blob());
  DBG_TRY(capp, ApplicationPayload::parse(BytesView(ca->data(), ca->size())));
  out.client_app = std::move(*capp);
  DBG_TRY(sa, r.blob());
  DBG_TRY(sapp, ApplicationPayload::parse(BytesView(sa->data(), sa->size())));
  out.server_app = std::move(*sapp);
  if (!r.exhausted()) return fail("PurchaseSlot: trailing bytes");
  return out;
}

Bytes PurchaseReceipt::serialize() const {
  BytesWriter w;
  w.u64(client_application);
  w.u64(server_application);
  w.i64(window_start);
  w.i64(window_end);
  return w.take();
}

Result<PurchaseReceipt> PurchaseReceipt::parse(BytesView data) {
  BytesReader r(data);
  PurchaseReceipt out;
  DBG_TRY(c, r.u64());
  out.client_application = *c;
  DBG_TRY(s, r.u64());
  out.server_application = *s;
  DBG_TRY(ws, r.i64());
  out.window_start = *ws;
  DBG_TRY(we, r.i64());
  out.window_end = *we;
  if (!r.exhausted()) return fail("PurchaseReceipt: trailing bytes");
  return out;
}

Bytes ApplicationObject::serialize() const {
  BytesWriter w;
  write_key(w, executor_key);
  w.u8(role);
  w.i64(window_start);
  w.i64(window_end);
  w.u64(embedded_tokens);
  const Bytes p = payload.serialize();
  w.blob(BytesView(p.data(), p.size()));
  w.raw(executor_address.digest.view());
  w.u8(reported ? 1 : 0);
  w.i64(reported_at);
  w.u64(result_object);
  // Reserved, always empty: its byte is part of the created object's size,
  // which sets the PurchaseSlot storage gas that Table II prices.
  w.blob({});
  return w.take();
}

Result<ApplicationObject> ApplicationObject::parse(BytesView data) {
  BytesReader r(data);
  ApplicationObject out;
  DBG_TRY(key, read_key(r));
  out.executor_key = *key;
  DBG_TRY(role, r.u8());
  if (*role > 1) return fail("ApplicationObject: bad role");
  out.role = *role;
  DBG_TRY(ws, r.i64());
  out.window_start = *ws;
  DBG_TRY(we, r.i64());
  out.window_end = *we;
  DBG_TRY(tokens, r.u64());
  out.embedded_tokens = *tokens;
  DBG_TRY(p, r.blob());
  DBG_TRY(payload,
          ApplicationPayload::parse(BytesView(p->data(), p->size())));
  out.payload = std::move(*payload);
  DBG_TRY(addr, r.raw(out.executor_address.digest.bytes.size()));
  std::copy(addr->begin(), addr->end(),
            out.executor_address.digest.bytes.begin());
  DBG_TRY(reported, r.u8());
  if (*reported > 1) return fail("ApplicationObject: bad reported flag");
  out.reported = *reported == 1;
  DBG_TRY(at, r.i64());
  out.reported_at = *at;
  DBG_TRY(ro, r.u64());
  out.result_object = *ro;
  DBG_TRY(reserved, r.blob());
  if (!reserved->empty()) return fail("ApplicationObject: reserved blob set");
  if (!r.exhausted()) return fail("ApplicationObject: trailing bytes");
  return out;
}

Bytes ReclaimApplicationArgs::serialize() const {
  BytesWriter w;
  w.u64(application);
  return w.take();
}

Result<ReclaimApplicationArgs> ReclaimApplicationArgs::parse(BytesView data) {
  BytesReader r(data);
  ReclaimApplicationArgs out;
  DBG_TRY(app, r.u64());
  out.application = *app;
  if (!r.exhausted()) return fail("ReclaimApplication: trailing bytes");
  return out;
}

Bytes ResultReadyArgs::serialize() const {
  BytesWriter w;
  w.u64(application);
  w.blob(BytesView(result.data(), result.size()));
  return w.take();
}

Result<ResultReadyArgs> ResultReadyArgs::parse(BytesView data) {
  BytesReader r(data);
  ResultReadyArgs out;
  DBG_TRY(app, r.u64());
  out.application = *app;
  DBG_TRY(result, r.blob());
  out.result = std::move(*result);
  if (!r.exhausted()) return fail("ResultReady: trailing bytes");
  return out;
}

Bytes LookupResultArgs::serialize() const {
  BytesWriter w;
  w.u64(application);
  return w.take();
}

Result<LookupResultArgs> LookupResultArgs::parse(BytesView data) {
  BytesReader r(data);
  LookupResultArgs out;
  DBG_TRY(app, r.u64());
  out.application = *app;
  if (!r.exhausted()) return fail("LookupResult: trailing bytes");
  return out;
}

Bytes ResultEntry::serialize() const {
  BytesWriter w;
  w.u8(found ? 1 : 0);
  w.u64(result_object);
  w.i64(reported_at);
  w.blob(BytesView(result.data(), result.size()));
  return w.take();
}

Result<ResultEntry> ResultEntry::parse(BytesView data) {
  BytesReader r(data);
  ResultEntry out;
  DBG_TRY(found, r.u8());
  if (*found > 1) return fail("ResultEntry: bad found flag");
  out.found = *found == 1;
  DBG_TRY(obj, r.u64());
  out.result_object = *obj;
  DBG_TRY(at, r.i64());
  out.reported_at = *at;
  DBG_TRY(result, r.blob());
  out.result = std::move(*result);
  if (!r.exhausted()) return fail("ResultEntry: trailing bytes");
  return out;
}

#undef DBG_TRY

}  // namespace debuglet::marketplace
