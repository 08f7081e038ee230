// In-memory span recorder for the traced run.
//
// A span is one call into a layer's public function, timed from the
// benchmark's own code: name, start, end, parent span and request id. Spans
// are appended to a vector (no I/O while measuring) and written as JSON when
// the run ends. A layer's self time is its spans' durations minus the part
// of each interval covered by that span's children.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder's spans, -1 = root
  std::uint64_t request = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled). Not thread-safe: one recorder per thread.
  int begin(const char* name, std::uint64_t request);
  void end(int index);

  // Records a finished span with explicit times and parent (intervals
  // measured elsewhere, and tests).
  int add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns, int parent,
          std::uint64_t request);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  // Self nanoseconds summed per span name.
  std::map<std::string, double> self_ns_by_name() const;

  // Writes the first `limit` spans (a serving replay records millions) and
  // the total count.
  bool write_json(const std::string& path, std::size_t limit = 50000) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Nanoseconds of [start, end) not covered by the union of `children`
// (each clipped to the interval): a span's self time given its children.
double uncovered_ns(std::uint64_t start, std::uint64_t end,
                    std::vector<std::pair<std::uint64_t, std::uint64_t>> children);

}  // namespace perfbench
