#include "src/obs/trace/perfetto.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "src/obs/trace/events.h"

namespace co::obs::trace {

namespace {

bool is_protocol(const Record& r) {
  return r.event < kProtocolEventCount;
}

/// Remote lifecycle milestones a flow arrow should land on.
bool is_flow_milestone(EventId e) {
  switch (e) {
    case EventId::kAccept:
    case EventId::kPark:
    case EventId::kPack:
    case EventId::kAck:
    case EventId::kDeliver:
      return true;
    default:
      return false;
  }
}

/// ns -> µs with ns precision preserved ("%.3f").
std::string ts_us(time::Tick at) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(at) / 1e3);
  return buf;
}

std::string pdu_label(const Record& r) {
  return "E" + std::to_string(r.origin) + "#" + std::to_string(r.seq);
}

struct Emitter {
  std::ostream& os;
  bool first = true;

  void open() { os << "{\"traceEvents\":[\n"; }
  void event(const std::string& body) {
    if (!first) os << ",\n";
    first = false;
    os << "{" << body << "}";
  }
  void close() { os << "\n]}\n"; }
};

}  // namespace

void write_perfetto_json(std::ostream& os, const std::vector<Record>& records,
                         const PerfettoOptions& opts) {
  Emitter out{os};
  out.open();

  // Track metadata: one named thread per entity seen as an actor.
  std::set<EntityId> actors;
  for (const Record& r : records)
    if (r.actor != kNoEntity) actors.insert(r.actor);
  out.event(
      "\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"co-cluster\"}");
  for (const EntityId a : actors) {
    const std::string tid = std::to_string(a);
    out.event("\"ph\":\"M\",\"pid\":1,\"tid\":" + tid +
              ",\"name\":\"thread_name\",\"args\":{\"name\":\"E" + tid +
              "\"}");
    out.event("\"ph\":\"M\",\"pid\":1,\"tid\":" + tid +
              ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" +
              tid + "}");
  }

  // Per-PDU flow bookkeeping: the send record index and the remote
  // milestones, in record (time) order.
  struct Flow {
    std::size_t send = static_cast<std::size_t>(-1);
    std::vector<std::size_t> milestones;
  };
  std::map<std::pair<EntityId, std::uint64_t>, Flow> flows;
  if (opts.flows) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      if (!is_protocol(r) || r.origin == kNoEntity) continue;
      const auto e = static_cast<EventId>(r.event);
      Flow& f = flows[{r.origin, r.seq}];
      if (e == EventId::kSend && f.send == static_cast<std::size_t>(-1))
        f.send = i;
      else if (is_flow_milestone(e) && r.actor != r.origin)
        f.milestones.push_back(i);
    }
  }

  // The slices and instants themselves.
  for (const Record& r : records) {
    const auto e = static_cast<EventId>(r.event);
    const std::string name(event_name(e));
    const std::string tid =
        std::to_string(r.actor != kNoEntity ? r.actor : 999);
    const std::string ts = ts_us(r.at);
    const std::string args = "{\"origin\":" + std::to_string(r.origin) +
                             ",\"seq\":" + std::to_string(r.seq) +
                             ",\"arg\":" + std::to_string(r.arg) +
                             ",\"stream\":" + std::to_string(r.stream) + "}";
    if (is_protocol(r)) {
      // Short complete slice — gives flow arrows an anchor to bind to.
      out.event("\"name\":\"" + name + " " + pdu_label(r) + "\",\"cat\":\"" +
                name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + tid +
                ",\"ts\":" + ts + ",\"dur\":1,\"args\":" + args);
    } else {
      out.event("\"name\":\"" + name + "\",\"cat\":\"driver\",\"ph\":\"i\","
                "\"s\":\"t\",\"pid\":1,\"tid\":" + tid + ",\"ts\":" + ts +
                ",\"args\":" + args);
    }
  }

  // Flow arrows: start at the send slice, step through every remote
  // milestone, finish (binding-point "enclosing slice") at the last one.
  if (opts.flows) {
    std::uint64_t next_id = 1;
    for (const auto& [key, f] : flows) {
      if (f.send == static_cast<std::size_t>(-1) || f.milestones.empty())
        continue;
      const std::uint64_t id = next_id++;
      const Record& send = records[f.send];
      const std::string name = pdu_label(send);
      const std::string common = "\"name\":\"" + name +
                                 "\",\"cat\":\"pdu\",\"id\":" +
                                 std::to_string(id) + ",\"pid\":1";
      out.event(common + ",\"ph\":\"s\",\"tid\":" +
                std::to_string(send.actor) + ",\"ts\":" + ts_us(send.at));
      for (std::size_t m = 0; m < f.milestones.size(); ++m) {
        const Record& r = records[f.milestones[m]];
        const bool last = m + 1 == f.milestones.size();
        out.event(common + (last ? ",\"ph\":\"f\",\"bp\":\"e\",\"tid\":"
                                 : ",\"ph\":\"t\",\"tid\":") +
                  std::to_string(r.actor) + ",\"ts\":" + ts_us(r.at));
      }
    }
  }

  out.close();
}

void write_trace_summary(std::ostream& os, const std::vector<Record>& records,
                         std::uint64_t dropped) {
  std::map<std::string, std::uint64_t> by_event;
  std::map<EntityId, std::uint64_t> by_actor;
  std::set<std::pair<EntityId, std::uint64_t>> pdus;
  time::Tick lo = 0, hi = 0;
  bool any = false;
  for (const Record& r : records) {
    ++by_event[std::string(event_name(static_cast<EventId>(r.event)))];
    ++by_actor[r.actor];
    if (is_protocol(r) && r.origin != kNoEntity) pdus.insert({r.origin, r.seq});
    if (!any || r.at < lo) lo = r.at;
    if (!any || r.at > hi) hi = r.at;
    any = true;
  }
  os << "records: " << records.size() << " (dropped/overwritten: " << dropped
     << ")\n";
  if (any) {
    os << "time range: " << static_cast<double>(lo) / 1e6 << " .. "
       << static_cast<double>(hi) / 1e6 << " ms  (span "
       << static_cast<double>(hi - lo) / 1e6 << " ms)\n";
  }
  os << "pdus traced: " << pdus.size() << "\n";
  os << "by event:\n";
  for (const auto& [name, n] : by_event)
    os << "  " << name << ": " << n << "\n";
  os << "by entity:\n";
  for (const auto& [actor, n] : by_actor)
    os << "  E" << actor << ": " << n << "\n";
}

}  // namespace co::obs::trace
