// Lightweight error-or-value types used across HyperTP.
//
// The library does not use exceptions for control flow; fallible operations
// return Result<T> (or Result<void>), mirroring the Status/StatusOr idiom
// common in systems codebases.

#ifndef HYPERTP_SRC_BASE_RESULT_H_
#define HYPERTP_SRC_BASE_RESULT_H_

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace hypertp {

// Coarse error taxonomy; fine-grained context goes into Error::message.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kResourceExhausted,
  kUnimplemented,
  kInternal,
  kDataLoss,      // Corrupt UISR/PRAM payloads, checksum mismatches.
  kUnavailable,   // Transient: busy hypervisor, saturated link.
  kAborted,       // Transplant rolled back before the point of no return.
};

// Human-readable name for an ErrorCode ("kDataLoss" -> "DATA_LOSS").
std::string_view ErrorCodeName(ErrorCode code);

// An error with a code and a contextual message.
class Error {
 public:
  Error(ErrorCode code, std::string message) : code_(code), message_(std::move(message)) {
    assert(code != ErrorCode::kOk && "Error must not carry kOk");
  }

  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "DATA_LOSS: uisr: bad magic 0xdeadbeef"
  std::string ToString() const;

 private:
  ErrorCode code_;
  std::string message_;
};

// Result<T> holds either a value of T or an Error. Result<void> holds
// success or an Error.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so `return value;` and `return Error{...};` both work.
  Result(T value) : data_(std::move(value)) {}
  Result(Error error) : data_(std::move(error)) {}

  bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  const Error& error() const {
    assert(!ok());
    return std::get<Error>(data_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(data_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(data_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(data_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  // Returns the value or `fallback` when this result is an error.
  T value_or(T fallback) const& { return ok() ? value() : std::move(fallback); }

 private:
  std::variant<T, Error> data_;
};

template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error error) : error_(std::move(error)) {}

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Error& error() const {
    assert(!ok());
    return *error_;
  }

 private:
  std::optional<Error> error_;
};

// Success value for Result<void>.
inline Result<void> OkResult() { return Result<void>(); }

// Convenience error factories.
inline Error InvalidArgumentError(std::string msg) {
  return Error(ErrorCode::kInvalidArgument, std::move(msg));
}
inline Error NotFoundError(std::string msg) { return Error(ErrorCode::kNotFound, std::move(msg)); }
inline Error AlreadyExistsError(std::string msg) {
  return Error(ErrorCode::kAlreadyExists, std::move(msg));
}
inline Error FailedPreconditionError(std::string msg) {
  return Error(ErrorCode::kFailedPrecondition, std::move(msg));
}
inline Error OutOfRangeError(std::string msg) {
  return Error(ErrorCode::kOutOfRange, std::move(msg));
}
inline Error ResourceExhaustedError(std::string msg) {
  return Error(ErrorCode::kResourceExhausted, std::move(msg));
}
inline Error UnimplementedError(std::string msg) {
  return Error(ErrorCode::kUnimplemented, std::move(msg));
}
inline Error InternalError(std::string msg) { return Error(ErrorCode::kInternal, std::move(msg)); }
inline Error DataLossError(std::string msg) { return Error(ErrorCode::kDataLoss, std::move(msg)); }
inline Error UnavailableError(std::string msg) {
  return Error(ErrorCode::kUnavailable, std::move(msg));
}
inline Error AbortedError(std::string msg) { return Error(ErrorCode::kAborted, std::move(msg)); }

// Field checks shared by the config validators. Every error reads
// "<prefix><field> must be <rule>, got <value>", where `prefix` names the
// struct the caller set ("CampaignConfig::", "FleetConfig::policy."): a knob
// handed down a layer is still reported under the caller's name. The list
// checks return the first field that fails.
template <typename T>
using NamedFields = std::initializer_list<std::pair<const char*, T>>;
Error InvalidFieldError(std::string_view prefix, std::string_view field, std::string_view rule,
                        const std::string& value);
Result<void> CheckPositive(std::string_view prefix, NamedFields<int> fields);
// Durations in ns, each >= 0.
Result<void> CheckDurations(std::string_view prefix, NamedFields<int64_t> fields);
// Each inside [0, 1] (NaN rejected); `noun` names the range in the error.
Result<void> CheckUnitRange(std::string_view prefix, std::string_view noun,
                            NamedFields<double> fields);

// Propagates an error from an expression producing Result<void>.
#define HYPERTP_RETURN_IF_ERROR(expr)        \
  do {                                       \
    auto hypertp_status_ = (expr);           \
    if (!hypertp_status_.ok()) {             \
      return hypertp_status_.error();        \
    }                                        \
  } while (0)

// Evaluates `expr` (a Result<T>), propagating errors, otherwise assigning the
// value to `lhs`. `lhs` may include a declaration: ASSIGN_OR_RETURN(auto x, F()).
#define HYPERTP_CONCAT_INNER_(a, b) a##b
#define HYPERTP_CONCAT_(a, b) HYPERTP_CONCAT_INNER_(a, b)
#define HYPERTP_ASSIGN_OR_RETURN(lhs, expr)                            \
  auto HYPERTP_CONCAT_(hypertp_result_, __LINE__) = (expr);            \
  if (!HYPERTP_CONCAT_(hypertp_result_, __LINE__).ok()) {              \
    return HYPERTP_CONCAT_(hypertp_result_, __LINE__).error();         \
  }                                                                    \
  lhs = std::move(HYPERTP_CONCAT_(hypertp_result_, __LINE__)).value()

}  // namespace hypertp

#endif  // HYPERTP_SRC_BASE_RESULT_H_
