#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace dagperf {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ErrorCode::kNotFound:
      return "NOT_FOUND";
    case ErrorCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case ErrorCode::kInternal:
      return "INTERNAL";
    case ErrorCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case ErrorCode::kCancelled:
      return "CANCELLED";
    case ErrorCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case ErrorCode::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

bool IsRetryable(ErrorCode code) {
  // Load shedding and unavailability are transient by definition: the same
  // request succeeds once the admission queue drains or a replacement
  // server (or shard) comes up — so clients should back off and retry.
  return code == ErrorCode::kInternal || code == ErrorCode::kResourceExhausted ||
         code == ErrorCode::kUnavailable;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = ErrorCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

namespace internal_status {

void DieOnBadResultAccess(const Status& status) {
  std::fprintf(stderr, "Result<T>::value() called on error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal_status

}  // namespace dagperf
