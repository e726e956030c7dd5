#include "obs/trace.hpp"

#include <algorithm>

namespace dsud::obs {

SpanId Tracer::begin(std::string_view name) {
  if (!enabled_) return kNoSpan;
  const std::uint64_t now = nowNs();
  std::lock_guard lock(mutex_);
  if (trace_.events.size() >= maxEvents_) {
    ++trace_.droppedEvents;
    return kNoSpan;
  }
  TraceEvent event;
  event.name.assign(name);
  event.parent = openStack_.empty() ? kNoSpan : openStack_.back();
  event.startNs = now;
  const auto id = static_cast<SpanId>(trace_.events.size());
  trace_.events.push_back(std::move(event));
  openStack_.push_back(id);
  return id;
}

void Tracer::end(SpanId id) {
  if (!enabled_ || id == kNoSpan) return;
  const std::uint64_t now = nowNs();
  std::lock_guard lock(mutex_);
  if (id >= trace_.events.size()) return;
  trace_.events[id].endNs = std::max<std::uint64_t>(now, 1);
  // Spans usually close LIFO; erase-from-top keeps out-of-order closes safe.
  for (auto it = openStack_.rbegin(); it != openStack_.rend(); ++it) {
    if (*it == id) {
      openStack_.erase(std::next(it).base());
      break;
    }
  }
}

void Tracer::attr(SpanId id, std::string_view key, double value) {
  if (!enabled_ || id == kNoSpan) return;
  std::lock_guard lock(mutex_);
  if (id >= trace_.events.size()) return;
  trace_.events[id].attrs.emplace_back(std::string(key), value);
}

QueryTrace Tracer::take() {
  const std::uint64_t now = nowNs();
  std::lock_guard lock(mutex_);
  for (const SpanId id : openStack_) {
    if (id < trace_.events.size() && trace_.events[id].endNs == 0) {
      trace_.events[id].endNs = std::max<std::uint64_t>(now, 1);
    }
  }
  openStack_.clear();
  QueryTrace out = std::move(trace_);
  trace_ = QueryTrace{};
  return out;
}

QueryTrace Tracer::snapshot() const {
  std::lock_guard lock(mutex_);
  return trace_;
}

}  // namespace dsud::obs
