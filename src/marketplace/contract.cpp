#include "marketplace/contract.hpp"

#include <algorithm>
#include <optional>

#include "marketplace/calendar.hpp"
#include "marketplace/reputation.hpp"

namespace debuglet::marketplace {

namespace {

// Named-state keys within the contract's namespace (the chain prefixes
// the contract name, so the full conflict key is e.g.
// "debuglet_marketplace/exec/AS1#2").
std::string exec_key(topology::InterfaceKey key) {
  return "exec/" + key.to_string();
}
std::string slots_key(topology::InterfaceKey key) {
  return "slots/" + key.to_string();
}
// Published results are indexed under named state, NOT inside the
// application object: ReclaimApplication deletes the application (for its
// storage rebate) but results must stay collectable forever. The index
// names the result object, the one copy of the result bytes.
std::string result_key(chain::ObjectId application) {
  return "result/" + std::to_string(application);
}

Bytes encode_address(const chain::Address& address) {
  BytesWriter w;
  w.raw(address.digest.view());
  return w.take();
}

Result<chain::Address> decode_address(BytesView data) {
  BytesReader r(data);
  chain::Address out;
  auto raw = r.raw(out.digest.bytes.size());
  if (!raw) return raw.error();
  std::copy(raw->begin(), raw->end(), out.digest.bytes.begin());
  return out;
}

/// The calendar of `key`, or an empty one when no slots were registered.
SlotCalendar read_calendar(chain::CallContext& ctx,
                           topology::InterfaceKey key) {
  auto data = ctx.read_named(slots_key(key));
  if (!data) return {};
  auto calendar = SlotCalendar::decode(BytesView(data->data(), data->size()));
  return calendar ? std::move(*calendar) : SlotCalendar{};
}

/// Stores the calendar of `key`, less the slots that ended by the block time.
Status write_calendar(chain::CallContext& ctx, topology::InterfaceKey key,
                      SlotCalendar& calendar) {
  calendar.drop_ended(ctx.timestamp());
  return ctx.write_named(slots_key(key), calendar.encode());
}

/// On-chain strike count against `asn` (cross-contract read into the
/// reputation namespace; 0 when never reported). An undeclared read
/// latches an access violation and aborts the transaction — callers built
/// their access set via access_lookup_slot / access_purchase_slot, which
/// declare the two reputation keys.
std::uint32_t strikes_of(chain::CallContext& ctx, topology::AsNumber asn) {
  auto data =
      ctx.read_named_of(kReputationContractName, reputation_as_key(asn));
  if (!data) return 0;
  auto record = ReputationRecord::parse(BytesView(data->data(), data->size()));
  return record ? record->strikes : 0;
}

}  // namespace

chain::AccessSet access_register_executor(topology::InterfaceKey key) {
  chain::AccessSet access;
  access.add_write(chain::named_access_key(kContractName, exec_key(key)));
  return access;
}

chain::AccessSet access_register_time_slot(topology::InterfaceKey key) {
  chain::AccessSet access;
  access.add_read(chain::named_access_key(kContractName, exec_key(key)));
  access.add_write(chain::named_access_key(kContractName, slots_key(key)));
  return access;
}

chain::AccessSet access_lookup_slot(topology::InterfaceKey client_key,
                                    topology::InterfaceKey server_key) {
  chain::AccessSet access;
  access.add_read(
      chain::named_access_key(kContractName, slots_key(client_key)));
  access.add_read(
      chain::named_access_key(kContractName, slots_key(server_key)));
  // Quotes consult the reputation contract for strike penalties.
  access.add_read(chain::named_access_key(kReputationContractName,
                                          reputation_as_key(client_key.asn)));
  access.add_read(chain::named_access_key(kReputationContractName,
                                          reputation_as_key(server_key.asn)));
  return access;
}

chain::AccessSet access_purchase_slot(topology::InterfaceKey client_key,
                                      topology::InterfaceKey server_key) {
  chain::AccessSet access;
  access.add_read(
      chain::named_access_key(kContractName, exec_key(client_key)));
  access.add_read(
      chain::named_access_key(kContractName, exec_key(server_key)));
  access.add_write(
      chain::named_access_key(kContractName, slots_key(client_key)));
  access.add_write(
      chain::named_access_key(kContractName, slots_key(server_key)));
  // Purchases re-derive the reputation penalty at commit time.
  access.add_read(chain::named_access_key(kReputationContractName,
                                          reputation_as_key(client_key.asn)));
  access.add_read(chain::named_access_key(kReputationContractName,
                                          reputation_as_key(server_key.asn)));
  return access;
}

chain::AccessSet access_result_ready(chain::ObjectId application) {
  chain::AccessSet access;
  access.add_write(chain::object_access_key(application));
  access.add_write(chain::named_access_key(kContractName,
                                           result_key(application)));
  return access;
}

chain::AccessSet access_reclaim_application(chain::ObjectId application) {
  chain::AccessSet access;
  access.add_write(chain::object_access_key(application));
  return access;
}

MarketplaceContract::MarketplaceContract() {
  obs::MetricsRegistry& reg = obs::registry();
  obs_.executors_registered = &reg.counter("marketplace.executors_registered");
  obs_.slots_registered = &reg.counter("marketplace.slots_registered");
  obs_.slots_purchased = &reg.counter("marketplace.slots_purchased");
  obs_.results_reported = &reg.counter("marketplace.results_reported");
  obs_.escrow_volume = &reg.counter("marketplace.escrow_volume_mist");
  obs_.result_latency_ms = &reg.histogram("marketplace.result_latency_ms");
}

Result<Bytes> MarketplaceContract::call(chain::CallContext& context,
                                        const std::string& function,
                                        BytesView arguments) {
  if (function == "RegisterExecutor")
    return register_executor(context, arguments);
  if (function == "RegisterTimeSlot")
    return register_time_slot(context, arguments);
  if (function == "LookupSlot") return lookup_slot(context, arguments);
  if (function == "PurchaseSlot") return purchase_slot(context, arguments);
  if (function == "ResultReady") return result_ready(context, arguments);
  if (function == "ReclaimApplication")
    return reclaim_application(context, arguments);
  if (function == "LookupResult") return lookup_result(context, arguments);
  return fail("unknown function '" + function + "'");
}

Result<Bytes> MarketplaceContract::register_executor(chain::CallContext& ctx,
                                                     BytesView args) {
  auto parsed = RegisterExecutorArgs::parse(args);
  if (!parsed) return parsed.error();
  const std::string key = exec_key(parsed->key);
  if (auto existing = ctx.read_named(key); existing) {
    auto owner = decode_address(BytesView(existing->data(), existing->size()));
    if (!owner) return owner.error();
    if (!(*owner == ctx.sender()))
      return fail("executor " + parsed->key.to_string() +
                  " already registered to a different address");
    return Bytes{};  // idempotent re-registration
  }
  if (auto s = ctx.write_named(key, encode_address(ctx.sender())); !s)
    return s.error();
  obs_.executors_registered->add();
  ctx.emit_event(kEventExecutorRegistered, parsed->key.to_string(), Bytes{});
  return Bytes{};
}

Result<Bytes> MarketplaceContract::register_time_slot(chain::CallContext& ctx,
                                                      BytesView args) {
  auto parsed = RegisterTimeSlotArgs::parse(args);
  if (!parsed) return parsed.error();
  auto registered = ctx.read_named(exec_key(parsed->key));
  if (!registered)
    return fail("executor " + parsed->key.to_string() + " not registered");
  auto owner =
      decode_address(BytesView(registered->data(), registered->size()));
  if (!owner) return owner.error();
  // The paper: "first checks that the provided AS number and interface ID
  // are, in fact, associated with the calling executor".
  if (!(*owner == ctx.sender()))
    return fail("caller does not own executor " + parsed->key.to_string());
  SlotCalendar calendar = read_calendar(ctx, parsed->key);
  if (auto s = calendar.add(parsed->runs, parsed->key); !s) return s.error();
  if (auto s = write_calendar(ctx, parsed->key, calendar); !s)
    return s.error();
  std::uint64_t slots = 0;
  for (const SlotRun& run : parsed->runs) slots += run.count;
  obs_.slots_registered->add(slots);
  return Bytes{};
}

SlotQuote MarketplaceContract::quote(chain::CallContext& ctx,
                                     const LookupSlotArgs& q) const {
  const SlotCalendar client = read_calendar(ctx, q.client_key);
  const SlotCalendar server = read_calendar(ctx, q.server_key);
  const std::uint32_t client_strikes = strikes_of(ctx, q.client_key.asn);
  const std::uint32_t server_strikes = strikes_of(ctx, q.server_key.asn);
  return quote_calendars(client, server, q, client_strikes, server_strikes);
}

Result<Bytes> MarketplaceContract::lookup_slot(chain::CallContext& ctx,
                                               BytesView args) {
  auto parsed = LookupSlotArgs::parse(args);
  if (!parsed) return parsed.error();
  return quote(ctx, *parsed).serialize();
}

Result<Bytes> MarketplaceContract::purchase_slot(chain::CallContext& ctx,
                                                 BytesView args) {
  auto parsed = PurchaseSlotArgs::parse(args);
  if (!parsed) return parsed.error();
  auto client_exec = ctx.read_named(exec_key(parsed->client_key));
  if (!client_exec)
    return fail("executor " + parsed->client_key.to_string() +
                " not registered");
  auto server_exec = ctx.read_named(exec_key(parsed->server_key));
  if (!server_exec)
    return fail("executor " + parsed->server_key.to_string() +
                " not registered");
  auto client_address =
      decode_address(BytesView(client_exec->data(), client_exec->size()));
  if (!client_address) return client_address.error();
  auto server_address =
      decode_address(BytesView(server_exec->data(), server_exec->size()));
  if (!server_address) return server_address.error();

  // Both slots must still be available exactly as quoted (no partial
  // purchase: validate both before consuming either). The calendars are
  // copies, stored below only if every check passes; when client and server
  // are one executor, the server's copy is stored last.
  SlotCalendar client_calendar = read_calendar(ctx, parsed->client_key);
  SlotCalendar server_calendar = read_calendar(ctx, parsed->server_key);
  if (!client_calendar.remove(parsed->client_slot))
    return fail("client slot not available at " +
                parsed->client_key.to_string());
  if (!server_calendar.remove(parsed->server_slot))
    return fail("server slot not available at " +
                parsed->server_key.to_string());

  // The paper: "first verifies that the embedded tokens suffice for the
  // specified execution slots". Reputation penalties are re-derived at
  // commit time from the same committed strike records the quote read, so
  // quote and purchase always agree within a batch.
  const chain::Mist client_price = apply_reputation_penalty(
      parsed->client_slot.price, strikes_of(ctx, parsed->client_key.asn));
  const chain::Mist server_price = apply_reputation_penalty(
      parsed->server_slot.price, strikes_of(ctx, parsed->server_key.asn));
  const chain::Mist price = client_price + server_price;
  if (ctx.attached_tokens() < price)
    return fail("attached tokens " + std::to_string(ctx.attached_tokens()) +
                " below slot price " + std::to_string(price));

  const SimTime window_start =
      std::max(parsed->client_slot.start, parsed->server_slot.start);
  const SimTime window_end =
      std::min(parsed->client_slot.end, parsed->server_slot.end);
  if (window_start >= window_end)
    return fail("slots share no common time window");
  // A window under way still sells; one that has ended cannot run.
  if (window_end <= ctx.timestamp())
    return fail("slot window ended at " + std::to_string(window_end));

  if (auto s = write_calendar(ctx, parsed->client_key, client_calendar); !s)
    return s.error();
  if (auto s = write_calendar(ctx, parsed->server_key, server_calendar); !s)
    return s.error();

  // Create the two application objects with the tokens embedded.
  auto make_app = [&](topology::InterfaceKey key, chain::Address address,
                      std::uint8_t role, const ApplicationPayload& payload,
                      chain::Mist tokens) -> Result<chain::ObjectId> {
    ApplicationObject obj;
    obj.executor_key = key;
    obj.role = role;
    obj.window_start = window_start;
    obj.window_end = window_end;
    obj.embedded_tokens = tokens;
    obj.payload = payload;
    obj.executor_address = address;
    return ctx.create_object(obj.serialize());
  };

  auto client_id = make_app(parsed->client_key, *client_address, 0,
                            parsed->client_app, client_price);
  if (!client_id) return client_id.error();
  auto server_id = make_app(parsed->server_key, *server_address, 1,
                            parsed->server_app, server_price);
  if (!server_id) return server_id.error();

  // Refund any excess attached tokens to the initiator.
  if (ctx.attached_tokens() > price) {
    if (auto s = ctx.pay_from_escrow(ctx.sender(),
                                     ctx.attached_tokens() - price);
        !s)
      return s.error();
  }

  obs_.slots_purchased->add(2);
  obs_.escrow_volume->add(price);

  // Notify the executors, which "must have subscribed to the event with
  // arguments containing their AS number and interface ID".
  BytesWriter cw;
  cw.u64(*client_id);
  ctx.emit_event(kEventDebugletDeployed, parsed->client_key.to_string(),
                 cw.take());
  BytesWriter sw;
  sw.u64(*server_id);
  ctx.emit_event(kEventDebugletDeployed, parsed->server_key.to_string(),
                 sw.take());

  PurchaseReceipt receipt;
  receipt.client_application = *client_id;
  receipt.server_application = *server_id;
  receipt.window_start = window_start;
  receipt.window_end = window_end;
  return receipt.serialize();
}

Result<Bytes> MarketplaceContract::result_ready(chain::CallContext& ctx,
                                                BytesView args) {
  auto parsed = ResultReadyArgs::parse(args);
  if (!parsed) return parsed.error();
  auto data = ctx.read_object(parsed->application);
  if (!data)
    return fail("no pending application " +
                std::to_string(parsed->application));
  auto app = ApplicationObject::parse(BytesView(data->data(), data->size()));
  if (!app) return app.error();
  if (app->reported)
    return fail("result already reported for application " +
                std::to_string(parsed->application));
  if (!(app->executor_address == ctx.sender()))
    return fail("caller is not the executor assigned to application " +
                std::to_string(parsed->application));

  // Pay the embedded tokens out to the executor.
  if (auto s = ctx.pay_from_escrow(ctx.sender(), app->embedded_tokens); !s)
    return s.error();

  auto result_object = ctx.create_object(std::move(parsed->result));
  if (!result_object) return result_object.error();
  app->reported = true;
  app->reported_at = ctx.timestamp();
  app->result_object = *result_object;
  if (auto s = ctx.write_object(parsed->application, app->serialize()); !s)
    return s.error();
  // Index the result object under named state so it outlives the
  // application object (freed by ReclaimApplication for its rebate).
  ResultEntry published;
  published.found = true;
  published.result_object = app->result_object;
  published.reported_at = app->reported_at;
  if (auto s = ctx.write_named(result_key(parsed->application),
                               published.serialize());
      !s)
    return s.error();

  obs_.results_reported->add();
  // Latency between the end of the purchased window and the report landing
  // on chain (clamped: early reports inside the window count as zero).
  const SimTime lag = app->reported_at - app->window_end;
  obs_.result_latency_ms->record(lag > 0 ? duration::to_ms(lag) : 0.0);

  BytesWriter w;
  w.u64(app->result_object);
  ctx.emit_event(kEventResultReady, std::to_string(parsed->application),
                 w.take());
  return Bytes{};
}

Result<Bytes> MarketplaceContract::reclaim_application(
    chain::CallContext& ctx, BytesView args) {
  auto parsed = ReclaimApplicationArgs::parse(args);
  if (!parsed) return parsed.error();
  auto data = ctx.read_object(parsed->application);
  if (!data)
    return fail("no application " + std::to_string(parsed->application));
  auto app = ApplicationObject::parse(BytesView(data->data(), data->size()));
  if (!app) return app.error();
  // Only after the result exists: freeing the bytecode earlier would leave
  // the executor unable to fetch it.
  if (!app->reported)
    return fail("application " + std::to_string(parsed->application) +
                " has no reported result yet");
  auto owner = ctx.object_owner(parsed->application);
  if (!owner) return owner.error();
  if (!(*owner == ctx.sender()))
    return fail("only the purchasing initiator may reclaim application " +
                std::to_string(parsed->application));
  // delete_object credits the storage rebate to the owner (the initiator).
  if (auto s = ctx.delete_object(parsed->application); !s) return s.error();
  return Bytes{};
}

Result<Bytes> MarketplaceContract::lookup_result(chain::CallContext& ctx,
                                                 BytesView args) {
  auto parsed = LookupResultArgs::parse(args);
  if (!parsed) return parsed.error();
  auto index = ctx.read_named(result_key(parsed->application));
  if (!index) return ResultEntry{}.serialize();
  auto entry = ResultEntry::parse(BytesView(index->data(), index->size()));
  if (!entry) return entry.error();
  auto result = ctx.read_object(entry->result_object);
  if (!result) return result.error();
  entry->result = std::move(*result);
  return entry->serialize();
}

std::size_t MarketplaceContract::registered_executors() const {
  if (chain_ == nullptr) return 0;
  const std::string prefix =
      chain::named_access_key(kContractName, "exec/");
  std::size_t count = 0;
  const auto& named = chain_->named_state();
  for (auto it = named.lower_bound(prefix);
       it != named.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    ++count;
  return count;
}

std::vector<TimeSlot> MarketplaceContract::available_slots(
    topology::InterfaceKey key) const {
  if (chain_ == nullptr) return {};
  const chain::NamedEntry* entry = chain_->named_entry(
      chain::named_access_key(kContractName, slots_key(key)));
  if (entry == nullptr) return {};
  auto calendar =
      SlotCalendar::decode(BytesView(entry->data.data(), entry->data.size()));
  return calendar ? calendar->slots() : std::vector<TimeSlot>{};
}

std::vector<chain::ObjectId> MarketplaceContract::applications_for(
    topology::InterfaceKey client_key, topology::InterfaceKey server_key)
    const {
  std::vector<chain::ObjectId> out;
  if (chain_ == nullptr) return out;
  // PurchaseSlot creates the client's application and then the server's,
  // and one call's objects get consecutive ids.
  std::optional<chain::ObjectId> client;  // the last client application
  for (const auto& [id, object] : chain_->objects()) {
    auto app = ApplicationObject::parse(
        BytesView(object.data.data(), object.data.size()));
    if (!app) continue;
    if (app->role == 0 && app->executor_key == client_key) client = id;
    if (app->role == 1 && app->executor_key == server_key && client == id - 1)
      out.insert(out.end(), {id - 1, id});
  }
  return out;
}

}  // namespace debuglet::marketplace
