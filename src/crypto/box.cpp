#include "crypto/box.hpp"

namespace debuglet::crypto {

namespace {

// Derives the symmetric key from the DH shared secret and both public
// values (binding the key to this exchange).
Digest kdf(const U256& shared, const U256& ephemeral_pk,
           const PublicKey& recipient) {
  Sha256 h;
  h.update("debuglet-box-kdf");
  const Bytes s = shared.to_be_bytes();
  h.update(BytesView(s.data(), s.size()));
  const Bytes e = ephemeral_pk.to_be_bytes();
  h.update(BytesView(e.data(), e.size()));
  const Bytes r = recipient.y.to_be_bytes();
  h.update(BytesView(r.data(), r.size()));
  return h.finalize();
}

}  // namespace

Bytes seal_for(const PublicKey& recipient, BytesView plaintext,
               std::uint64_t entropy) {
  // Deterministic-from-entropy ephemeral key (the caller supplies fresh
  // entropy per message; determinism keeps simulations reproducible).
  BytesWriter seed;
  seed.str("debuglet-box-ephemeral");
  seed.u64(entropy);
  const Bytes rb = recipient.y.to_be_bytes();
  seed.raw(BytesView(rb.data(), rb.size()));
  seed.blob(plaintext);
  const KeyPair ephemeral = KeyPair::from_seed_bytes(
      BytesView(seed.bytes().data(), seed.bytes().size()));

  const U256 shared = ephemeral.shared_secret(recipient);
  const Digest key = kdf(shared, ephemeral.public_key().y, recipient);

  BytesWriter out;
  const Bytes epk = ephemeral.public_key().y.to_be_bytes();
  out.raw(BytesView(epk.data(), epk.size()));
  const Bytes sealed = seal(key.view(), entropy, plaintext);
  out.raw(BytesView(sealed.data(), sealed.size()));
  return out.take();
}

Result<Bytes> open_box(const KeyPair& recipient, BytesView sealed) {
  if (sealed.size() < 32 + 8 + 32) return fail("sealed box too short");
  const U256 ephemeral_pk = U256::from_be_bytes(sealed.subspan(0, 32));
  if (!valid_public_key(ephemeral_pk))
    return fail("sealed box: bad ephemeral key");
  const U256 shared = recipient.shared_secret(PublicKey{ephemeral_pk});
  const Digest key = kdf(shared, ephemeral_pk, recipient.public_key());
  return open(key.view(), sealed.subspan(32));
}

}  // namespace debuglet::crypto
