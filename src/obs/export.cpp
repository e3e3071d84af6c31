#include "src/obs/export.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "src/common/expect.h"

namespace co::obs {

namespace {

/// Shortest round-trippable double; integral values print as integers.
std::string fmt_double(double v) {
  if (!std::isfinite(v)) return v > 0 ? "+Inf" : (v < 0 ? "-Inf" : "NaN");
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::fabs(v) < 9.0e15)
    return std::to_string(static_cast<std::int64_t>(v));
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string prom_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// `{k1="v1",k2="v2"}` (empty string for no labels), with `extra` appended
/// (used for the histogram `le` label).
std::string prom_labels(const Labels& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += prom_escape(v);
    out += '"';
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsSnapshot& snap,
                      const MetricsRegistry* help_source) {
  std::string last_family;
  for (const auto& s : snap.series) {
    if (s.name != last_family) {
      last_family = s.name;
      if (help_source) {
        const std::string_view help = help_source->help(s.name);
        if (!help.empty()) os << "# HELP " << s.name << ' ' << help << '\n';
      }
      os << "# TYPE " << s.name << ' ' << metric_type_name(s.type) << '\n';
    }
    if (s.type != MetricType::kHistogram) {
      os << s.name << prom_labels(s.labels) << ' ' << fmt_double(s.value)
         << '\n';
      continue;
    }
    const auto& bounds = Histogram::bounds();
    CO_EXPECT(s.buckets.size() == bounds.size() + 1);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cum += s.buckets[i];
      os << s.name << "_bucket"
         << prom_labels(s.labels, "le=\"" + fmt_double(bounds[i]) + "\"")
         << ' ' << cum << '\n';
    }
    cum += s.buckets.back();
    os << s.name << "_bucket" << prom_labels(s.labels, "le=\"+Inf\"") << ' '
       << cum << '\n';
    os << s.name << "_sum" << prom_labels(s.labels) << ' ' << fmt_double(s.sum)
       << '\n';
    os << s.name << "_count" << prom_labels(s.labels) << ' ' << s.count
       << '\n';
  }
}

// ---------------------------------------------------------------------------
// validate_prometheus
// ---------------------------------------------------------------------------

namespace {

bool prom_name_ok(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (const char c : name)
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

bool prom_value_ok(std::string_view v) {
  if (v.empty()) return false;
  if (v == "+Inf" || v == "-Inf" || v == "NaN") return true;
  char* end = nullptr;
  const std::string tmp(v);
  std::strtod(tmp.c_str(), &end);
  return end == tmp.c_str() + tmp.size();
}

struct Sample {
  std::string name;        // full sample name, incl. _bucket/_sum/_count
  std::string labels;      // canonical "k=v,k=v" with le stripped
  std::string le;          // le label value (empty when absent)
  double value = 0.0;
};

/// Parse `name{labels} value`; returns an error or fills `out`.
std::optional<std::string> parse_sample(std::string_view line, Sample* out) {
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  out->name = std::string(line.substr(0, i));
  if (!prom_name_ok(out->name)) return "bad metric name: " + out->name;
  std::vector<std::pair<std::string, std::string>> labels;
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t k0 = i;
      while (i < line.size() && line[i] != '=') ++i;
      const std::string key(line.substr(k0, i - k0));
      if (!prom_name_ok(key) || key.find(':') != std::string::npos)
        return "bad label name: " + key;
      if (i + 1 >= line.size() || line[i] != '=' || line[i + 1] != '"')
        return "label value must be quoted (" + out->name + ")";
      i += 2;
      std::string value;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          if (i + 1 >= line.size()) return "dangling escape";
          const char c = line[i + 1];
          if (c != '\\' && c != '"' && c != 'n') return "bad escape in label";
          value += c == 'n' ? '\n' : c;
          i += 2;
        } else {
          value += line[i++];
        }
      }
      if (i >= line.size()) return "unterminated label value";
      ++i;  // closing quote
      labels.emplace_back(key, value);
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size()) return "unterminated label set";
    ++i;  // '}'
  }
  if (i >= line.size() || line[i] != ' ')
    return "missing value for " + out->name;
  const std::string_view value_text = line.substr(i + 1);
  if (!prom_value_ok(value_text))
    return "bad sample value: " + std::string(value_text);
  out->value = value_text == "+Inf"
                   ? std::numeric_limits<double>::infinity()
                   : std::strtod(std::string(value_text).c_str(), nullptr);
  std::string canon;
  for (const auto& [k, v] : labels) {
    if (k == "le") {
      out->le = v;
      continue;
    }
    if (!canon.empty()) canon += ',';
    canon += k + "=" + v;
  }
  out->labels = std::move(canon);
  return std::nullopt;
}

}  // namespace

std::optional<std::string> validate_prometheus(std::string_view text) {
  std::map<std::string, std::string> family_type;  // name -> type
  struct HistSeries {
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    bool has_inf = false;
    double inf_count = 0.0;
    bool has_sum = false;
    double count = -1.0;
  };
  std::map<std::pair<std::string, std::string>, HistSeries> hists;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, (eol == std::string_view::npos ? text.size() : eol) -
                             pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    auto err = [&](const std::string& msg) {
      return "line " + std::to_string(line_no) + ": " + msg;
    };
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream is{std::string(line)};
      std::string hash, kind, name;
      is >> hash >> kind >> name;
      if (kind != "HELP" && kind != "TYPE") continue;  // plain comment
      if (!prom_name_ok(name)) return err("bad name in " + kind + " comment");
      if (kind == "TYPE") {
        std::string type;
        is >> type;
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped")
          return err("unknown metric type: " + type);
        if (family_type.count(name))
          return err("duplicate TYPE for " + name);
        family_type[name] = type;
      }
      continue;
    }
    Sample s;
    if (auto e = parse_sample(line, &s)) return err(*e);
    // Map _bucket/_sum/_count samples back to their histogram family.
    std::string family = s.name;
    std::string suffix;
    for (const char* suf : {"_bucket", "_sum", "_count"}) {
      const std::string_view sv = suf;
      if (family.size() > sv.size() &&
          family.compare(family.size() - sv.size(), sv.size(), sv) == 0 &&
          family_type.count(family.substr(0, family.size() - sv.size()))) {
        suffix = suf;
        family = family.substr(0, family.size() - sv.size());
        break;
      }
    }
    const auto ft = family_type.find(family);
    if (ft == family_type.end())
      return err("sample " + s.name + " precedes its TYPE comment");
    const bool is_hist = ft->second == "histogram";
    if (!suffix.empty() && !is_hist)
      return err(family + suffix + " on non-histogram family");
    if (is_hist) {
      if (suffix.empty())
        return err("bare sample for histogram family " + family);
      auto& h = hists[{family, s.labels}];
      if (suffix == "_bucket") {
        if (s.le.empty()) return err(family + "_bucket without le label");
        if (s.le == "+Inf") {
          h.has_inf = true;
          h.inf_count = s.value;
        } else {
          if (!prom_value_ok(s.le)) return err("bad le value: " + s.le);
          h.buckets.emplace_back(std::strtod(s.le.c_str(), nullptr), s.value);
        }
      } else if (suffix == "_sum") {
        h.has_sum = true;
      } else {
        h.count = s.value;
      }
    } else if (!s.le.empty()) {
      return err("le label on non-histogram sample " + s.name);
    }
  }

  for (const auto& [key, h] : hists) {
    const std::string where = key.first + "{" + key.second + "}";
    if (!h.has_inf) return where + ": missing le=\"+Inf\" bucket";
    if (!h.has_sum) return where + ": missing _sum";
    if (h.count < 0.0) return where + ": missing _count";
    double prev_le = -std::numeric_limits<double>::infinity();
    double prev_cum = -1.0;
    for (const auto& [le, cum] : h.buckets) {
      if (le <= prev_le) return where + ": le values not increasing";
      if (cum < prev_cum) return where + ": bucket counts not cumulative";
      prev_le = le;
      prev_cum = cum;
    }
    if (h.inf_count < prev_cum)
      return where + ": +Inf bucket below prior bucket";
    if (h.inf_count != h.count)
      return where + ": +Inf bucket disagrees with _count";
  }
  return std::nullopt;
}

}  // namespace co::obs
