#ifndef DAGPERF_ERROR_CODES_H_
#define DAGPERF_ERROR_CODES_H_

/// Stable error vocabulary, shared by the C++ API (Status/Result in
/// common/status.h) and the NDJSON wire protocol (error.code /
/// error.retryable in service/protocol.h). Declared once here so the two
/// surfaces cannot drift: a new code is added to this enum, named in
/// ErrorCodeName, and classified in IsRetryable — nowhere else.
///
/// Compatibility contract (see docs/api.md): existing enumerators keep their
/// numeric values and wire names across minor releases; new codes may be
/// appended. Clients should treat unknown wire names as non-retryable unless
/// error.retryable says otherwise.

namespace dagperf {

/// Error vocabulary for fallible library operations. The library does not
/// throw across its public API; construction helpers and algorithms that can
/// fail return Status or Result<T>.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kInternal,
  /// The caller-supplied Deadline expired before the operation finished.
  /// Partial results (e.g. a sweep's already-evaluated candidates) are still
  /// returned by APIs that document it.
  kDeadlineExceeded,
  /// A CancelToken observed by the operation was cancelled.
  kCancelled,
  /// A bounded resource (the estimation service's admission queue) is full
  /// and the request was shed instead of queued. Retry later — backing off —
  /// with the same inputs.
  kResourceExhausted,
  /// The serving path is temporarily refusing work: the service shut down
  /// mid-request (or, behind the router, the owning shard is down or
  /// saturated). Retryable — the same request succeeds against a healthy
  /// (or restarted) server.
  kUnavailable,
};

/// Stable upper-snake-case name of a code ("INVALID_ARGUMENT", ...), the
/// vocabulary used by Status::ToString and the service wire protocol.
const char* ErrorCodeName(ErrorCode code);

/// Whether a failed operation is worth retrying with the same inputs.
/// kInternal failures (iteration guards, transient limits) may succeed on a
/// retry with adjusted limits; invalid input and expired budgets will not.
bool IsRetryable(ErrorCode code);

}  // namespace dagperf

#endif  // DAGPERF_ERROR_CODES_H_
