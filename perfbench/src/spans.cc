#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common.h"

namespace perfbench {

int SpanRecorder::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  spans_.back().start_ns = mono_ns();  // last, so the bookkeeping is not timed
  return index;
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  const std::uint64_t now = mono_ns();
  spans_[static_cast<std::size_t>(index)].end_ns = now;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int SpanRecorder::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                      int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

double uncovered_ns(std::uint64_t start, std::uint64_t end,
                    std::vector<std::pair<std::uint64_t, std::uint64_t>> children) {
  if (end <= start) return 0.0;
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = start;
  for (const auto& [lo, hi] : children) {
    const std::uint64_t from = std::max(lo, reach);
    const std::uint64_t to = std::min(hi, end);
    if (to > from) covered += to - from;
    reach = std::max(reach, to);
  }
  return static_cast<double>(end - start - covered);
}

std::map<std::string, double> SpanRecorder::self_ns_by_name() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        uncovered_ns(spans_[i].start_ns, spans_[i].end_ns, std::move(children[i]));
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path, std::size_t limit) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans_total\": %zu, \"spans\": [", spans_.size());
  for (std::size_t i = 0; i < spans_.size() && i < limit; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %d, \"request\": %llu}",
                 i == 0 ? "" : ",", i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
