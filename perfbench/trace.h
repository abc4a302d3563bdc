// Spans the benchmark records around its own calls into each layer of the
// engine (the program is not instrumented). A span has a layer, a name,
// start and end (ns), the index of the span that caused it, and the id of
// the transaction wave or operation it belongs to. Spans stay in memory
// and are written out once the run has ended.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Layers, named after the repository modules the benchmark calls into.
/// `client` is the benchmark's own grouping spans (set-up, a shift), whose
/// self time is what no layer call inside them covers.
/// `mem` has no span: the benchmark never calls it directly — its work
/// runs inside engine and storage calls and is reported by counters.
enum Layer : uint16_t {
  kClient = 0,
  kWorkload,
  kEngine,
  kCore,
  kStorage,
  kLog,
  kServer,
  kNumLayers
};

inline const char* LayerName(int l) {
  static constexpr const char* kNames[kNumLayers] = {
      "client", "workload", "engine", "core", "storage", "log", "server"};
  return kNames[l];
}

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;      ///< wave / operation id
  int32_t parent = -1;  ///< index into the same SpanLog, -1 for a root
  uint16_t layer = kClient;
  const char* name = "";  ///< static string
};

/// Single-threaded span buffer (one per recording thread).
class SpanLog {
 public:
  explicit SpanLog(size_t reserve = 0) { spans_.reserve(reserve); }

  /// Opens a span whose end is not known yet; returns its index.
  int32_t Open(uint16_t layer, const char* name, uint64_t id, int32_t parent,
               uint64_t start_ns) {
    spans_.push_back(Span{start_ns, start_ns, id, parent, layer, name});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t idx, uint64_t end_ns) {
    spans_[static_cast<size_t>(idx)].end_ns = end_ns;
  }
  /// Records a finished span.
  void Add(uint16_t layer, const char* name, uint64_t id, int32_t parent,
           uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back(Span{start_ns, end_ns, id, parent, layer, name});
  }

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// Self time per layer: each span's duration minus the time its direct
/// children cover (children run inside their parent, one after another,
/// on the parent's thread).
inline std::array<uint64_t, kNumLayers> SelfTimeNs(
    const std::vector<Span>& spans) {
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::array<uint64_t, kNumLayers> self{};
  for (size_t i = 0; i < spans.size(); ++i) {
    uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    self[spans[i].layer] += dur > child_ns[i] ? dur - child_ns[i] : 0;
  }
  return self;
}

/// Writes spans as CSV, one line per span in recording order:
/// log,parent,id,layer,name,start_ns,dur_ns. `parent` is the line number
/// of the parent within the same log (-1 for none) and start_ns is
/// relative to `origin_ns`. Returns false when the file cannot be written.
inline bool WriteSpansCsv(const std::string& path,
                          const std::vector<const SpanLog*>& logs,
                          uint64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "log,parent,id,layer,name,start_ns,dur_ns\n");
  for (size_t l = 0; l < logs.size(); ++l) {
    for (const Span& s : logs[l]->spans())
      std::fprintf(f, "%zu,%d,%llu,%s,%s,%llu,%llu\n", l, s.parent,
                   static_cast<unsigned long long>(s.id), LayerName(s.layer),
                   s.name,
                   static_cast<unsigned long long>(s.start_ns - origin_ns),
                   static_cast<unsigned long long>(s.end_ns - s.start_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
