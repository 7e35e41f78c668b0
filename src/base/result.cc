#include "src/base/result.h"

namespace hypertp {

std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ErrorCode::kNotFound:
      return "NOT_FOUND";
    case ErrorCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case ErrorCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case ErrorCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case ErrorCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case ErrorCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case ErrorCode::kInternal:
      return "INTERNAL";
    case ErrorCode::kDataLoss:
      return "DATA_LOSS";
    case ErrorCode::kUnavailable:
      return "UNAVAILABLE";
    case ErrorCode::kAborted:
      return "ABORTED";
  }
  return "UNKNOWN";
}

std::string Error::ToString() const {
  std::string out(ErrorCodeName(code_));
  out += ": ";
  out += message_;
  return out;
}

Error InvalidFieldError(std::string_view prefix, std::string_view field, std::string_view rule,
                        const std::string& value) {
  std::string message(prefix);
  message.append(field).append(" must be ").append(rule).append(", got ").append(value);
  return InvalidArgumentError(std::move(message));
}

Result<void> CheckPositive(std::string_view prefix, NamedFields<int> fields) {
  for (const auto& [field, v] : fields) {
    if (v <= 0) return InvalidFieldError(prefix, field, "> 0", std::to_string(v));
  }
  return OkResult();
}

Result<void> CheckDurations(std::string_view prefix, NamedFields<int64_t> fields) {
  for (const auto& [field, v] : fields) {
    if (v < 0) return InvalidFieldError(prefix, field, ">= 0", std::to_string(v) + " ns");
  }
  return OkResult();
}

Result<void> CheckUnitRange(std::string_view prefix, std::string_view noun,
                            NamedFields<double> fields) {
  for (const auto& [field, v] : fields) {
    if (!(v >= 0.0 && v <= 1.0)) {  // Negated so NaN is rejected too.
      return InvalidFieldError(prefix, field, "a " + std::string(noun) + " in [0, 1]",
                               std::to_string(v));
    }
  }
  return OkResult();
}

}  // namespace hypertp
