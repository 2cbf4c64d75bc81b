// Golden answers: what every benchmark request must come back with.
//
// The table maps a request KEY -- the request line without its "id" and
// "budget" fields, which never change the verdict -- to the expected
// transport status, domain verdict, and level (-1 when the envelope carries
// none, i.e. for every verdict but SOLVABLE).  It was recorded once from the
// seed build with `wfc_perfbench --record-golden` and is committed next to
// the benchmark; node counts are deliberately absent, because a pruning
// change may legitimately alter them.
//
// Responses are scanned with a minimal reader for the four fields the
// check needs ("id", "status", "verdict", "level"), so the generator's cost
// does not depend on the library's JSON code.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace perfbench {

struct Expected {
  std::string status;
  std::string verdict;
  int level = -1;
  bool operator==(const Expected&) const = default;
};

struct Answer {
  std::string_view id;
  std::string_view status;
  std::string_view verdict;
  int level = -1;
};

/// Value of a top-level string field `"key":"..."` (no escapes expected in
/// the fields scanned here); empty when absent.
inline std::string_view string_value(std::string_view line,
                                     std::string_view key) {
  std::string pat;
  pat.reserve(key.size() + 4);
  pat += '"';
  pat += key;
  pat += "\":\"";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return {};
  const std::size_t from = at + pat.size();
  const std::size_t to = line.find('"', from);
  if (to == std::string_view::npos) return {};
  return line.substr(from, to - from);
}

/// Value of a top-level integer field `"key":N`; nullopt when absent.
inline std::optional<long long> int_value(std::string_view line,
                                          std::string_view key) {
  std::string pat;
  pat += '"';
  pat += key;
  pat += "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t i = at + pat.size();
  bool neg = false;
  if (i < line.size() && line[i] == '-') {
    neg = true;
    ++i;
  }
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  long long v = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    v = v * 10 + (line[i] - '0');
    ++i;
  }
  return neg ? -v : v;
}

inline Answer parse_answer(std::string_view line) {
  Answer a;
  a.id = string_value(line, "id");
  a.status = string_value(line, "status");
  a.verdict = string_value(line, "verdict");
  if (auto l = int_value(line, "level")) a.level = static_cast<int>(*l);
  return a;
}

inline bool matches(const Expected& want, const Answer& got) {
  return got.status == want.status && got.verdict == want.verdict &&
         got.level == want.level;
}

class GoldenTable {
 public:
  /// Lines: key <TAB> status <TAB> verdict <TAB> level.  '#' comments.
  static GoldenTable load(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open golden table " + path);
    GoldenTable t;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string key, status, verdict, level;
      if (!std::getline(fields, key, '\t') ||
          !std::getline(fields, status, '\t') ||
          !std::getline(fields, verdict, '\t') ||
          !std::getline(fields, level)) {
        throw std::runtime_error("malformed golden line: " + line);
      }
      t.rows_[key] = Expected{status, verdict, std::stoi(level)};
    }
    return t;
  }

  void put(const std::string& key, Expected e) { rows_[key] = std::move(e); }

  [[nodiscard]] const Expected* find(const std::string& key) const {
    auto it = rows_.find(key);
    return it == rows_.end() ? nullptr : &it->second;
  }

  void save(std::ostream& out) const {
    out << "# key\tstatus\tverdict\tlevel (-1 = no level in the envelope)\n";
    for (const auto& [key, e] : rows_) {
      out << key << '\t' << e.status << '\t' << e.verdict << '\t' << e.level
          << '\n';
    }
  }

 private:
  std::map<std::string, Expected> rows_;
};

}  // namespace perfbench
