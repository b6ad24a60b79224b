// Lightweight Status / Result<T> types for recoverable errors.
//
// The engine avoids exceptions on hot paths (packet relaying runs per-packet);
// fallible operations return Status or Result<T> and callers branch on ok().
#ifndef MOPEYE_UTIL_STATUS_H_
#define MOPEYE_UTIL_STATUS_H_

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace moputil {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kOutOfRange,
  kUnavailable,
  kAlreadyExists,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
};

// Human-readable name for a StatusCode ("OK", "INVALID_ARGUMENT", ...).
const char* StatusCodeName(StatusCode code);

// A success-or-error value. Cheap to copy on the success path (no message
// allocation); error construction allocates the message string.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CODE>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgument(std::string m) {
  return Status(StatusCode::kInvalidArgument, std::move(m));
}
inline Status NotFound(std::string m) {
  return Status(StatusCode::kNotFound, std::move(m));
}
inline Status FailedPrecondition(std::string m) {
  return Status(StatusCode::kFailedPrecondition, std::move(m));
}
inline Status OutOfRange(std::string m) {
  return Status(StatusCode::kOutOfRange, std::move(m));
}
inline Status Unavailable(std::string m) {
  return Status(StatusCode::kUnavailable, std::move(m));
}
inline Status Internal(std::string m) {
  return Status(StatusCode::kInternal, std::move(m));
}
inline Status Unimplemented(std::string m) {
  return Status(StatusCode::kUnimplemented, std::move(m));
}

// Either a T or an error Status. Accessing value() on an error aborts in
// debug builds; callers must check ok() first.
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}        // NOLINT(google-explicit-constructor)
  Result(Status status) : data_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(data_).ok() && "Result<T> built from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(data_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(data_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(data_));
  }

  Status status() const {
    if (ok()) {
      return OkStatus();
    }
    return std::get<Status>(data_);
  }

  const T& value_or(const T& fallback) const {
    return ok() ? std::get<T>(data_) : fallback;
  }

 private:
  std::variant<T, Status> data_;
};

}  // namespace moputil

#endif  // MOPEYE_UTIL_STATUS_H_
