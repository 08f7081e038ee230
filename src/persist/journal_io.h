// Durable binary form of the telemetry EventJournal, on the shared CRC
// framing (persist/framing.h) — one frame per event, torn-tail tolerant.
//
// The text/JSON exporters (telemetry/export.h) are presentation formats; this
// is a machine format: dumps survive kill -9 with at most the in-flight event
// lost (under FsyncPolicy::kEveryRecord, none), and round trips are
// bit-exact, including the f64 timestamps. No production code calls it yet —
// persist_test is its only consumer; duetd does not persist its
// EventJournal across restarts.
#pragma once

#include <string>

#include "persist/framing.h"
#include "telemetry/journal.h"

namespace duet::persist {

inline constexpr std::string_view kJournalMagic = "DUETEVJ1";

// Event <-> bytes (frame payloads; also reused by tests).
std::vector<std::uint8_t> encode_event(const telemetry::Event& event);
std::optional<telemetry::Event> decode_event(std::span<const std::uint8_t> bytes);

// Writes the whole journal (insertion order) to `path`, replacing any
// existing file. Returns false on I/O failure.
bool write_journal(const std::string& path, const telemetry::EventJournal& journal,
                   FsyncPolicy policy = FsyncPolicy::kNone);

struct ReadJournalResult {
  telemetry::EventJournal journal;
  bool truncated_tail = false;  // a torn final event was dropped
  std::string error;            // hard failure (missing file, bad magic)

  bool ok() const noexcept { return error.empty(); }
};

// Reads a journal written by write_journal (or appended by a JournalWriter).
// A torn final record truncates, never errors.
ReadJournalResult read_journal(const std::string& path);

// Incremental appender for live processes: events stream to disk as they
// are recorded instead of one bulk dump at exit.
class JournalWriter {
 public:
  static std::optional<JournalWriter> open(const std::string& path, FsyncPolicy policy);
  bool append(const telemetry::Event& event);

 private:
  FrameWriter writer_;
};

}  // namespace duet::persist
