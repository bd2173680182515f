// Result<T>: a value-or-error type for expected failures.
//
// Debuglet uses exceptions only for programming errors (precondition
// violations); anything a correct caller may legitimately encounter —
// a malformed packet, an over-budget manifest, an unknown executor —
// travels through Result<T>.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace debuglet {

/// Error payload carried by a failed Result.
struct Error {
  std::string message;
};

/// Creates an Error; convenience for `return fail("...")`.
inline Error fail(std::string message) { return Error{std::move(message)}; }

/// A value of type T or an Error. Accessing the wrong alternative throws
/// std::logic_error — that is a caller bug, not an expected failure.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Result(Error error) : state_(std::move(error)) {}      // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  /// The held value. Precondition: ok().
  const T& value() const& {
    if (!ok()) throw_on_error();
    return std::get<T>(state_);
  }
  T& value() & {
    if (!ok()) throw_on_error();
    return std::get<T>(state_);
  }
  T&& value() && {
    if (!ok()) throw_on_error();
    return std::move(std::get<T>(state_));
  }

  /// The held error. Precondition: !ok().
  const Error& error() const {
    if (ok()) throw std::logic_error("Result::error() on success");
    return std::get<Error>(state_);
  }

  /// The error message, or "" when the result is a success.
  std::string error_message() const {
    return ok() ? std::string{} : std::get<Error>(state_).message;
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  // Out of line of the accessors: the message is built only when thrown.
  [[noreturn]] void throw_on_error() const {
    throw std::logic_error("Result::value() on error: " + error_message());
  }
  std::variant<T, Error> state_;
};

/// Result specialization carrier for operations with no payload.
struct Unit {};

using Status = Result<Unit>;

/// A successful Status.
inline Status ok_status() { return Status(Unit{}); }

}  // namespace debuglet
