#include "obs/span_store.h"

#include <sstream>
#include <utility>

namespace phoenix::obs {

void SpanStore::set_capacity(std::size_t n) {
  capacity_ = n;
  while (spans_.size() > capacity_) spans_.pop_front();
}

void SpanStore::record(Span span) {
  if (!enabled_) return;
  ++recorded_;
  spans_.push_back(std::move(span));
  while (spans_.size() > capacity_) spans_.pop_front();
}

void SpanStore::clear() {
  spans_.clear();
}

namespace {

void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

std::string SpanStore::to_chrome_json() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":";
    append_json_string(out, s.name);
    out << ",\"cat\":";
    append_json_string(out, s.component);
    // pid groups events by trace in the viewer; tid flattens each trace to
    // one track. ts/dur are already microseconds (SimTime unit).
    out << ",\"ph\":\"X\",\"ts\":" << s.start
        << ",\"dur\":" << (s.end >= s.start ? s.end - s.start : 0)
        << ",\"pid\":" << (s.trace_id % 100000) << ",\"tid\":1"
        << ",\"args\":{\"trace_id\":\"" << s.trace_id << "\",\"span_id\":\""
        << s.span_id << "\",\"parent_span_id\":\"" << s.parent_span_id
        << "\",\"outcome\":";
    append_json_string(out, s.outcome);
    out << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace phoenix::obs
