// Public-key sealed boxes (ElGamal/ECIES-style KEM over the Schnorr group).
//
// Implements the paper's private-results option end to end (§IV-C): the
// executor seals the measurement output for the initiator's public key
// before publishing, so "the results are not readable by third parties" on
// the chain, while the initiator opens them with its secret key.
//
// Construction: ephemeral key pair (e, g^e); shared secret = recipient^e;
// KDF = SHA-256(shared || context); payload encrypted and authenticated
// with the stream cipher's seal(). Wire format:
//   ephemeral_public_key (32 B) || stream::seal(...) output.
//
// Keys are checked with valid_public_key (schnorr.hpp): y in [2, p−2],
// which rules out the elements of order 1 and 2, whose shared secrets
// anyone can compute. Elements of the other small orders are not ruled
// out (p − 1 = 2·3·7·13441·q with q prime, so subgroups of order 3, 7,
// 13441 and their products exist); a key in one of them leaks its shared
// secret to a small search. Honest keys are g^x and never land there by
// chance; checking membership in the order-q subgroup is out of scope.
#pragma once

#include "crypto/schnorr.hpp"
#include "crypto/stream.hpp"

namespace debuglet::crypto {

/// Seals `plaintext` so only the holder of `recipient`'s secret key can
/// read it. `entropy` must differ across messages to the same recipient
/// (the executor draws it from its RNG).
Bytes seal_for(const PublicKey& recipient, BytesView plaintext,
               std::uint64_t entropy);

/// Opens a seal_for() blob with the recipient's key pair. Fails on
/// truncation, a foreign recipient, or any tampering.
Result<Bytes> open_box(const KeyPair& recipient, BytesView sealed);

}  // namespace debuglet::crypto
