#ifndef DAGPERF_FUZZ_PROTOCOL_INGESTION_H_
#define DAGPERF_FUZZ_PROTOCOL_INGESTION_H_

#include <cstddef>
#include <cstdint>

namespace dagperf {

/// Shared fuzz entry point for the NDJSON serving surface: treats `data` as
/// a whole client session (any mix of torn lines, oversized frames, CRLF,
/// NUL bytes, valid and malformed requests) and pumps it through ServeLines
/// against a real single-threaded EstimationService with a small line cap so
/// the framing limits are actually reachable. Any input must produce one
/// response line per request line, each a valid JSON document that is a
/// fixpoint of Json::Parse(line)->DumpCompact(), and a clean return — never
/// an abort, an uncaught exception, or UB. The same bytes also go through
/// the TCP transport's LineFramer, torn into input-chosen chunks: the events
/// must equal those of one whole-buffer feed, and the framer must never hold
/// more than the line cap plus one chunk.
///
/// Used by both the libFuzzer harness (protocol_fuzzer.cc) and the
/// checked-in corpus replay test (corpus_replay for corpus_protocol/), so
/// every corpus file doubles as a regression test in plain ctest runs.
/// Always returns 0 (the libFuzzer convention for "input consumed").
int RunProtocolIngestion(const uint8_t* data, size_t size);

}  // namespace dagperf

#endif  // DAGPERF_FUZZ_PROTOCOL_INGESTION_H_
