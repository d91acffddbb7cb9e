// rxl-lint: repo-specific determinism-contract checker.
//
// The bench tables in this repository are byte-diffed in CI and
// sim::run_trials promises bit-identical ordered merges at any worker
// count. Those guarantees are easy to break silently: one range-for over
// an unordered_map, one std::chrono::steady_clock::now() in a model, one
// heap-allocating std::function in the event hot path, one double in a
// protocol state header. This tool turns the repository's implicit
// determinism and hot-path contracts into machine-checked rules.
//
// It is deliberately a dependency-free token/AST-lite scanner (no libclang:
// the container only guarantees a C++ toolchain). Comments and string
// literals are stripped before matching, so a rule name in a comment never
// trips its own rule; suppressions are read from the raw line.
//
// Rules (scopes are baked in — this is a repo tool, not a general linter):
//   R1  no iteration over std::unordered_map/std::unordered_set
//       (pointer-order nondeterminism) anywhere in src/ or include/.
//   R2  no ambient randomness or wall-clock time in src/ or include/:
//       rand(), srand(), std::random_device, std::mt19937, time(),
//       clock(), gettimeofday(), clock_gettime(), std::chrono::*_clock.
//       All randomness flows through rxl::common (seeded Xoshiro256).
//   R3  no std::function, heap `new`, make_unique/make_shared, or
//       malloc/calloc in designated hot-path files (event kernel, link
//       channel, ring queue, timer, flit/GF(256)/RS kernels, the
//       transparent hub switch). Placement
//       new into inline storage (`::new (ptr) T` / `new (ptr) T`) is the
//       sanctioned pattern and is not flagged.
//   R4  no float/double in protocol/sim state headers (timestamps and
//       credits are integral). FP lives in analysis/, bench/, the stats
//       accumulators, and the seeded RNG's distribution helpers.
//   R5  IWYU-lite header self-sufficiency: a public header that names a
//       std:: symbol must directly include the std header that declares
//       it (no include-order luck). The CMake header-selfcheck target
//       compiles every public header standalone; this rule catches the
//       common std cases at lint speed with line-level messages.
//   R6  no std::deque/std::list in the switchdev/ and link/ hot paths.
//       Relay queues and link-layer buffers are the credit-flow-control
//       accounting surface: an unbounded node-allocating container there
//       either hides a missing bound (the overload the credits exist to
//       prevent) or allocates per flit. Use RingQueue, or suppress with a
//       comment justifying why the container is externally bounded.
//   R7  no wall-clock time, RNG draws (including the sanctioned seeded
//       Xoshiro256 — a trace must never perturb the simulation's draw
//       order), or heap allocation (std::function, make_unique/shared,
//       malloc/calloc, non-placement new) in the trace-emission path
//       (include/rxl/obs/ and src/obs/). Traced and untraced runs promise
//       byte-identical bench tables; emission is fixed-footprint ring
//       writes stamped with sim time only.
//
// Suppressions:
//   // rxl-lint: allow(R3)            same line or the line directly above
//   // rxl-lint: allow(R3,R4)         multiple rules
//   // rxl-lint: allow-file(R4)       whole file, with a justification
//
// Usage:
//   rxl_lint [--root <dir>] [--rules R1,R2] [--expect N]
//            [--treat-as <repo-relative-path>] [--list-rules] [paths...]
//
// With no paths, scans <root>/src and <root>/include. --treat-as makes the
// scope rules see every scanned file at the given repo-relative path (how
// the fixture tests exercise file-scoped rules from tests/lint_fixtures/).
// Exit status: 0 when the finding count matches --expect (default 0),
// 1 otherwise, 2 on usage/IO errors.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"R1", "no iteration over std::unordered_map/unordered_set "
           "(pointer-order nondeterminism)"},
    {"R2", "no ambient randomness or wall-clock time; use seeded "
           "rxl::common RNG"},
    {"R3", "no std::function / heap allocation in hot-path files"},
    {"R4", "no float/double in protocol/sim state headers"},
    {"R5", "headers must directly include the std headers they use "
           "(IWYU-lite)"},
    {"R6", "no std::deque/std::list in switchdev//link/ hot paths; use "
           "RingQueue or justify the bound"},
    {"R7", "no wall-clock, RNG draws, or heap allocation in the "
           "trace-emission path (obs/)"},
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True for preprocessor lines (#include <new> is not a heap allocation).
bool is_preprocessor(const std::string& code) {
  const std::size_t first = code.find_first_not_of(" \t");
  return first != std::string::npos && code[first] == '#';
}

/// True when `text[pos]` starts a whole-word occurrence of `word`.
bool word_at(const std::string& text, std::size_t pos,
             const std::string& word) {
  if (pos + word.size() > text.size()) return false;
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && is_ident_char(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  if (end < text.size() && is_ident_char(text[end])) return false;
  return true;
}

/// First whole-word occurrence of `word` in `text`, or npos.
std::size_t find_word(const std::string& text, const std::string& word,
                      std::size_t from = 0) {
  for (std::size_t pos = text.find(word, from); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    if (word_at(text, pos, word)) return pos;
  }
  return std::string::npos;
}

/// One physical line of a scanned file.
struct Line {
  std::string code;  ///< comments and string/char literals blanked out
  std::string raw;   ///< original text (suppressions are read from here)
};

/// Loads a file and strips comments + literals, preserving line structure.
/// Stripped spans are replaced with spaces so columns stay meaningful.
std::vector<Line> load_stripped(const fs::path& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  ok = static_cast<bool>(in);
  std::vector<Line> lines;
  if (!ok) return lines;

  enum class State { kCode, kBlockComment, kLineComment, kString, kChar };
  State state = State::kCode;
  std::string raw;
  while (std::getline(in, raw)) {
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    std::string code = raw;
    if (state == State::kLineComment) state = State::kCode;  // ended at \n
    for (std::size_t i = 0; i < code.size(); ++i) {
      const char c = code[i];
      const char next = i + 1 < code.size() ? code[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '*') {
            state = State::kBlockComment;
            code[i] = ' ';
            code[i + 1] = ' ';
            ++i;
          } else if (c == '/' && next == '/') {
            state = State::kLineComment;
            for (std::size_t j = i; j < code.size(); ++j) code[j] = ' ';
            i = code.size();
          } else if (c == '"') {
            state = State::kString;
            code[i] = ' ';
          } else if (c == '\'') {
            // C++14 digit separators (2'000) are not char literals: an
            // apostrophe flanked by identifier characters stays code.
            const bool separator =
                i > 0 && is_ident_char(code[i - 1]) &&
                i + 1 < code.size() && is_ident_char(code[i + 1]);
            if (!separator) {
              state = State::kChar;
              code[i] = ' ';
            }
          }
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            code[i] = ' ';
            code[i + 1] = ' ';
            ++i;
          } else {
            code[i] = ' ';
          }
          break;
        case State::kString:
        case State::kChar: {
          const char quote = state == State::kString ? '"' : '\'';
          if (c == '\\') {
            code[i] = ' ';
            if (i + 1 < code.size()) {
              code[i + 1] = ' ';
              ++i;
            }
          } else {
            if (c == quote) state = State::kCode;
            code[i] = ' ';
          }
          break;
        }
        case State::kLineComment:
          break;  // unreachable: handled by the wipe above
      }
    }
    if (state == State::kLineComment) state = State::kCode;
    lines.push_back(Line{std::move(code), std::move(raw)});
  }
  return lines;
}

/// Parses `rxl-lint: allow(R1,R2)` / `allow-file(R4)` markers from a line.
void parse_suppressions(const std::string& raw, std::set<std::string>* line_ok,
                        std::set<std::string>* file_ok) {
  const std::string tag = "rxl-lint:";
  std::size_t pos = raw.find(tag);
  if (pos == std::string::npos) return;
  pos += tag.size();
  while (pos < raw.size()) {
    while (pos < raw.size() && raw[pos] == ' ') ++pos;
    const bool file_scope = raw.compare(pos, 11, "allow-file(") == 0;
    const bool line_scope = !file_scope && raw.compare(pos, 6, "allow(") == 0;
    if (!file_scope && !line_scope) break;
    pos += file_scope ? 11 : 6;
    const std::size_t close = raw.find(')', pos);
    if (close == std::string::npos) break;
    std::string inside = raw.substr(pos, close - pos);
    std::replace(inside.begin(), inside.end(), ',', ' ');
    std::istringstream ids(inside);
    std::string id;
    while (ids >> id) (file_scope ? file_ok : line_ok)->insert(id);
    pos = close + 1;
  }
}

// ---------------------------------------------------------------------------
// Rule scopes

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// R3: the event/link hot path, the flit / GF(256) / RS kernels, and the
/// transparent hub every switched flit crosses.
bool in_hot_path_scope(const std::string& rel) {
  static const std::set<std::string> kHotFiles = {
      "event_queue.hpp", "event_queue.cpp", "inline_event.hpp",
      "inline_delegate.hpp", "link_channel.hpp", "link_channel.cpp",
      "ring_queue.hpp", "timer.hpp", "gf256.hpp", "gf256.cpp",
      "flit.hpp", "flit.cpp", "flit68.hpp", "flit68.cpp",
      "flit_fec.hpp", "flit_fec.cpp", "reed_solomon.hpp",
      "reed_solomon.cpp", "crc64.hpp", "crc64.cpp", "port_switch.hpp",
      "port_switch.cpp"};
  return kHotFiles.count(basename_of(rel)) != 0;
}

/// R4: protocol/sim state headers — integral time/credits/sequence state.
/// stats.hpp (measurement accumulators) and rng.hpp (the sanctioned seeded
/// randomness API, whose distribution helpers take probabilities) carry FP
/// by design and sit outside the scope.
bool in_state_header_scope(const std::string& rel) {
  if (!starts_with(rel, "include/rxl/")) return false;
  const std::string base = basename_of(rel);
  if (base == "stats.hpp" || base == "rng.hpp") return false;
  return starts_with(rel, "include/rxl/flit/") ||
         starts_with(rel, "include/rxl/link/") ||
         starts_with(rel, "include/rxl/crc/") ||
         starts_with(rel, "include/rxl/sim/") ||
         starts_with(rel, "include/rxl/common/");
}

/// R6: the relay/link data path, where every queue is a credit-accounted
/// bounded buffer (or must say why it is not).
bool in_bounded_queue_scope(const std::string& rel) {
  return starts_with(rel, "include/rxl/switchdev/") ||
         starts_with(rel, "src/switchdev/") ||
         starts_with(rel, "include/rxl/link/") || starts_with(rel, "src/link/");
}

/// R7: the trace-emission surface. Everything under obs/ sits on the
/// record path or feeds it; the exporters also live here and inherit the
/// constraint (they run post-simulation, but keeping the whole module
/// wall-clock/RNG-free is what makes every export a pure function of the
/// seeds).
bool in_trace_emission_scope(const std::string& rel) {
  return starts_with(rel, "include/rxl/obs/") || starts_with(rel, "src/obs/");
}

bool is_header(const std::string& rel) {
  return rel.size() >= 4 && rel.compare(rel.size() - 4, 4, ".hpp") == 0;
}

bool in_public_header_scope(const std::string& rel) {
  return starts_with(rel, "include/") && is_header(rel);
}

// ---------------------------------------------------------------------------
// Per-rule checkers. Each appends findings; suppression filtering happens
// in the caller so every rule stays a pure matcher.

void check_r1(const std::vector<Line>& lines, const std::string& rel,
              std::vector<Finding>* findings) {
  // Pass 1: names declared (or bound) as unordered containers in this file.
  std::set<std::string> unordered_names;
  for (const Line& line : lines) {
    const std::string& code = line.code;
    for (const char* type : {"unordered_map", "unordered_set"}) {
      std::size_t pos = find_word(code, type);
      if (pos == std::string::npos) continue;
      // Find the identifier after the template argument list:
      // std::unordered_map<K, V> name{...};
      std::size_t i = code.find('<', pos);
      if (i == std::string::npos) continue;
      int depth = 0;
      for (; i < code.size(); ++i) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>' && --depth == 0) break;
      }
      if (i >= code.size()) continue;
      ++i;
      while (i < code.size() &&
             (code[i] == ' ' || code[i] == '&' || code[i] == '*'))
        ++i;
      std::string name;
      while (i < code.size() && is_ident_char(code[i])) name += code[i++];
      if (!name.empty()) unordered_names.insert(name);
    }
  }
  // Pass 2: range-for or .begin()/.cbegin() over a tracked name.
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    const std::size_t colon = code.find(" : ");
    if (colon != std::string::npos &&
        find_word(code, "for") != std::string::npos) {
      std::size_t i = colon + 3;
      while (i < code.size() && code[i] == ' ') ++i;
      std::string name;
      while (i < code.size() && is_ident_char(code[i])) name += code[i++];
      if (unordered_names.count(name) != 0) {
        findings->push_back(
            {rel, n + 1, "R1",
             "range-for over unordered container '" + name +
                 "' — iteration order is pointer-order nondeterministic"});
        continue;
      }
    }
    for (const std::string& name : unordered_names) {
      for (const char* call : {".begin()", ".cbegin()"}) {
        const std::size_t pos = code.find(name + call);
        if (pos != std::string::npos &&
            (pos == 0 || !is_ident_char(code[pos - 1]))) {
          findings->push_back(
              {rel, n + 1, "R1",
               "iterator over unordered container '" + name +
                   "' — iteration order is pointer-order nondeterministic"});
        }
      }
    }
  }
}

void check_r2(const std::vector<Line>& lines, const std::string& rel,
              std::vector<Finding>* findings) {
  struct Banned {
    const char* token;
    bool call_only;  ///< require '(' after the token (C functions)
    const char* why;
  };
  static const Banned kBanned[] = {
      {"random_device", false, "nondeterministic seed source"},
      {"mt19937", false, "use rxl::common Xoshiro256 with an explicit seed"},
      {"mt19937_64", false,
       "use rxl::common Xoshiro256 with an explicit seed"},
      {"default_random_engine", false,
       "implementation-defined engine; use the seeded rxl::common RNG"},
      {"rand", true, "hidden global state; use the seeded rxl::common RNG"},
      {"srand", true, "hidden global state; use the seeded rxl::common RNG"},
      {"time", true, "wall-clock time; simulations derive time from TimePs"},
      {"clock", true, "wall-clock time; simulations derive time from TimePs"},
      {"gettimeofday", true, "wall-clock time"},
      {"clock_gettime", true, "wall-clock time"},
      {"steady_clock", false, "wall-clock time in simulation code"},
      {"system_clock", false, "wall-clock time in simulation code"},
      {"high_resolution_clock", false, "wall-clock time in simulation code"},
  };
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    if (is_preprocessor(code)) continue;
    for (const Banned& b : kBanned) {
      const std::size_t pos = find_word(code, b.token);
      if (pos == std::string::npos) continue;
      if (b.call_only) {
        std::size_t i = pos + std::string(b.token).size();
        while (i < code.size() && code[i] == ' ') ++i;
        if (i >= code.size() || code[i] != '(') continue;
      }
      findings->push_back({rel, n + 1, "R2",
                           std::string("'") + b.token + "': " + b.why});
    }
  }
}

void check_r3(const std::vector<Line>& lines, const std::string& rel,
              std::vector<Finding>* findings) {
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    if (is_preprocessor(code)) continue;
    if (code.find("std::function") != std::string::npos) {
      findings->push_back({rel, n + 1, "R3",
                           "std::function in a hot-path file — heap-allocates "
                           "captures; use InlineEvent/InlineDelegate"});
    }
    for (const char* fn : {"make_unique", "make_shared", "malloc", "calloc"}) {
      if (find_word(code, fn) != std::string::npos) {
        findings->push_back(
            {rel, n + 1, "R3",
             std::string("'") + fn + "' heap allocation in a hot-path file"});
      }
    }
    // Heap `new`, excluding placement new (`new (ptr) T`) which is the
    // sanctioned write-into-inline-storage pattern.
    for (std::size_t pos = find_word(code, "new"); pos != std::string::npos;
         pos = find_word(code, "new", pos + 1)) {
      std::size_t i = pos + 3;
      while (i < code.size() && code[i] == ' ') ++i;
      if (i < code.size() && code[i] == '(') continue;  // placement form
      findings->push_back({rel, n + 1, "R3",
                           "heap 'new' in a hot-path file — events and "
                           "queue slots must not allocate"});
    }
  }
}

void check_r4(const std::vector<Line>& lines, const std::string& rel,
              std::vector<Finding>* findings) {
  for (std::size_t n = 0; n < lines.size(); ++n) {
    for (const char* type : {"float", "double"}) {
      if (find_word(lines[n].code, type) != std::string::npos) {
        findings->push_back(
            {rel, n + 1, "R4",
             std::string(type) +
                 " in a protocol/sim state header — timestamps and credits "
                 "are integral; FP belongs in analysis/ and bench/"});
      }
    }
  }
}

void check_r5(const std::vector<Line>& lines, const std::string& rel,
              std::vector<Finding>* findings) {
  struct Mapping {
    const char* symbol;  ///< matched as std::<symbol>
    const char* header;
  };
  static const Mapping kStdHeaders[] = {
      {"vector", "vector"},
      {"string", "string"},
      {"string_view", "string_view"},
      {"array", "array"},
      {"deque", "deque"},
      {"map", "map"},
      {"set", "set"},
      {"unordered_map", "unordered_map"},
      {"unordered_set", "unordered_set"},
      {"optional", "optional"},
      {"span", "span"},
      {"tuple", "tuple"},
      {"tie", "tuple"},
      {"pair", "utility"},
      {"move", "utility"},
      {"forward", "utility"},
      {"swap", "utility"},
      {"exchange", "utility"},
      {"function", "functional"},
      {"unique_ptr", "memory"},
      {"shared_ptr", "memory"},
      {"make_unique", "memory"},
      {"make_shared", "memory"},
      {"size_t", "cstddef"},
      {"ptrdiff_t", "cstddef"},
      {"byte", "cstddef"},
      {"uint8_t", "cstdint"},
      {"uint16_t", "cstdint"},
      {"uint32_t", "cstdint"},
      {"uint64_t", "cstdint"},
      {"int8_t", "cstdint"},
      {"int16_t", "cstdint"},
      {"int32_t", "cstdint"},
      {"int64_t", "cstdint"},
      {"memcpy", "cstring"},
      {"memset", "cstring"},
      {"memcmp", "cstring"},
      {"strlen", "cstring"},
      {"getenv", "cstdlib"},
      {"strtoul", "cstdlib"},
      {"abort", "cstdlib"},
      {"sqrt", "cmath"},
      {"pow", "cmath"},
      {"log", "cmath"},
      {"exp", "cmath"},
      {"fabs", "cmath"},
      {"min", "algorithm"},
      {"max", "algorithm"},
      {"sort", "algorithm"},
      {"fill", "algorithm"},
      {"copy", "algorithm"},
      {"clamp", "algorithm"},
      {"lower_bound", "algorithm"},
      {"numeric_limits", "limits"},
      {"runtime_error", "stdexcept"},
      {"invalid_argument", "stdexcept"},
      {"out_of_range", "stdexcept"},
      {"logic_error", "stdexcept"},
      {"exception_ptr", "exception"},
      {"current_exception", "exception"},
      {"rethrow_exception", "exception"},
      {"launder", "new"},
      {"thread", "thread"},
      {"mutex", "mutex"},
      {"lock_guard", "mutex"},
      {"scoped_lock", "mutex"},
      {"atomic", "atomic"},
      {"ostringstream", "sstream"},
      {"istringstream", "sstream"},
      {"enable_if_t", "type_traits"},
      {"is_same_v", "type_traits"},
      {"decay_t", "type_traits"},
      {"invoke_result_t", "type_traits"},
      {"is_trivially_copyable_v", "type_traits"},
      {"is_trivially_destructible_v", "type_traits"},
  };

  std::set<std::string> included;
  for (const Line& line : lines) {
    // Includes are parsed from the raw line: the stripper blanks the
    // quoted/angled form's contents? No — only "..." strings; <...> stays.
    // Parse raw to be immune to either behaviour.
    const std::string& raw = line.raw;
    std::size_t pos = raw.find("#include");
    if (pos == std::string::npos) continue;
    pos += 8;
    while (pos < raw.size() && raw[pos] == ' ') ++pos;
    if (pos >= raw.size()) continue;
    const char open = raw[pos];
    const char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
    if (close == '\0') continue;
    const std::size_t end = raw.find(close, pos + 1);
    if (end == std::string::npos) continue;
    included.insert(raw.substr(pos + 1, end - pos - 1));
  }

  std::set<std::string> reported;  // one finding per missing header
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    std::size_t pos = code.find("std::");
    for (; pos != std::string::npos; pos = code.find("std::", pos + 5)) {
      if (pos > 0 && is_ident_char(code[pos - 1])) continue;
      std::size_t i = pos + 5;
      std::string symbol;
      while (i < code.size() && is_ident_char(code[i])) symbol += code[i++];
      for (const Mapping& m : kStdHeaders) {
        if (symbol != m.symbol) continue;
        if (included.count(m.header) != 0) break;
        if (!reported.insert(m.header).second) break;
        findings->push_back(
            {rel, n + 1, "R5",
             "uses std::" + symbol + " but does not directly include <" +
                 m.header + "> — header must be include-order independent"});
        break;
      }
    }
  }
}

void check_r6(const std::vector<Line>& lines, const std::string& rel,
              std::vector<Finding>* findings) {
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    if (is_preprocessor(code)) continue;  // the #include itself is harmless
    for (const char* type : {"deque", "list"}) {
      for (std::size_t pos = find_word(code, type); pos != std::string::npos;
           pos = find_word(code, type, pos + 1)) {
        // Only the std containers: a member named `list` or a local
        // `free_list` is not a queue type.
        if (pos < 5 || code.compare(pos - 5, 5, "std::") != 0) continue;
        findings->push_back(
            {rel, n + 1, "R6",
             std::string("std::") + type +
                 " in a relay/link hot path — queues there are bounded, "
                 "credit-accounted buffers; use RingQueue or justify the "
                 "external bound in an allow(R6) comment"});
      }
    }
  }
}

void check_r7(const std::vector<Line>& lines, const std::string& rel,
              std::vector<Finding>* findings) {
  struct Banned {
    const char* token;
    bool call_only;  ///< require '(' after the token (C functions)
    const char* why;
  };
  static const Banned kBanned[] = {
      // RNG — including the repo's own seeded generator. TraceSink
      // creation and event emission must not draw: the determinism
      // contract says a traced run replays the untraced run's draw order
      // exactly.
      {"Xoshiro256", false,
       "trace emission must not draw from the simulation RNG stream"},
      {"random_device", false, "nondeterministic seed source"},
      {"mt19937", false, "RNG draw in the trace-emission path"},
      {"mt19937_64", false, "RNG draw in the trace-emission path"},
      {"default_random_engine", false, "RNG draw in the trace-emission path"},
      {"rand", true, "RNG draw in the trace-emission path"},
      {"srand", true, "RNG state mutation in the trace-emission path"},
      // Wall-clock — trace timestamps are sim time (TimePs) only.
      {"time", true, "wall-clock time; trace events are stamped with TimePs"},
      {"clock", true, "wall-clock time; trace events are stamped with TimePs"},
      {"gettimeofday", true, "wall-clock time in the trace-emission path"},
      {"clock_gettime", true, "wall-clock time in the trace-emission path"},
      {"steady_clock", false, "wall-clock time in the trace-emission path"},
      {"system_clock", false, "wall-clock time in the trace-emission path"},
      {"high_resolution_clock", false,
       "wall-clock time in the trace-emission path"},
      // Allocation — rings are fixed-footprint; record() is noexcept and
      // must stay allocation-free so tracing never perturbs timing-adjacent
      // allocator state.
      {"make_unique", false, "heap allocation in the trace-emission path"},
      {"make_shared", false, "heap allocation in the trace-emission path"},
      {"malloc", true, "heap allocation in the trace-emission path"},
      {"calloc", true, "heap allocation in the trace-emission path"},
  };
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    if (is_preprocessor(code)) continue;
    for (const Banned& b : kBanned) {
      const std::size_t pos = find_word(code, b.token);
      if (pos == std::string::npos) continue;
      if (b.call_only) {
        std::size_t i = pos + std::string(b.token).size();
        while (i < code.size() && code[i] == ' ') ++i;
        if (i >= code.size() || code[i] != '(') continue;
      }
      findings->push_back({rel, n + 1, "R7",
                           std::string("'") + b.token + "': " + b.why});
    }
    if (code.find("std::function") != std::string::npos) {
      findings->push_back({rel, n + 1, "R7",
                           "std::function in the trace-emission path — "
                           "heap-allocates captures; emission sites take a "
                           "raw TraceSink pointer"});
    }
    // Heap `new`, excluding placement new (`new (ptr) T`).
    for (std::size_t pos = find_word(code, "new"); pos != std::string::npos;
         pos = find_word(code, "new", pos + 1)) {
      std::size_t i = pos + 3;
      while (i < code.size() && code[i] == ' ') ++i;
      if (i < code.size() && code[i] == '(') continue;  // placement form
      findings->push_back({rel, n + 1, "R7",
                           "heap 'new' in the trace-emission path — rings "
                           "are fixed-footprint, sized at construction"});
    }
  }
}

// ---------------------------------------------------------------------------

struct Options {
  fs::path root = ".";
  std::set<std::string> rules;  ///< empty = all
  std::vector<fs::path> paths;
  std::string treat_as;
  long expect = 0;
  bool expect_set = false;
};

bool rule_enabled(const Options& opt, const std::string& id) {
  return opt.rules.empty() || opt.rules.count(id) != 0;
}

/// Repo-relative path with forward slashes, for scope matching and output.
std::string relative_to_root(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  std::string s = (ec || rel.empty() ? file : rel).generic_string();
  while (starts_with(s, "./")) s = s.substr(2);
  return s;
}

void scan_file(const fs::path& file, const Options& opt,
               std::vector<Finding>* all, bool* io_error) {
  bool ok = false;
  const std::vector<Line> lines = load_stripped(file, ok);
  if (!ok) {
    std::cerr << "rxl-lint: cannot read " << file << "\n";
    *io_error = true;
    return;
  }
  const std::string rel = opt.treat_as.empty()
                              ? relative_to_root(file, opt.root)
                              : opt.treat_as;
  const std::string display = relative_to_root(file, opt.root);

  std::set<std::string> file_allow;
  std::vector<std::set<std::string>> line_allow(lines.size());
  for (std::size_t n = 0; n < lines.size(); ++n)
    parse_suppressions(lines[n].raw, &line_allow[n], &file_allow);

  std::vector<Finding> findings;
  if (rule_enabled(opt, "R1")) check_r1(lines, display, &findings);
  if (rule_enabled(opt, "R2")) check_r2(lines, display, &findings);
  if (rule_enabled(opt, "R3") && in_hot_path_scope(rel))
    check_r3(lines, display, &findings);
  if (rule_enabled(opt, "R4") && in_state_header_scope(rel))
    check_r4(lines, display, &findings);
  if (rule_enabled(opt, "R5") && in_public_header_scope(rel))
    check_r5(lines, display, &findings);
  if (rule_enabled(opt, "R6") && in_bounded_queue_scope(rel))
    check_r6(lines, display, &findings);
  if (rule_enabled(opt, "R7") && in_trace_emission_scope(rel))
    check_r7(lines, display, &findings);

  for (Finding& f : findings) {
    if (file_allow.count(f.rule) != 0) continue;
    const std::size_t idx = f.line - 1;  // same line or the line above
    if (idx < line_allow.size() && line_allow[idx].count(f.rule) != 0)
      continue;
    if (idx > 0 && line_allow[idx - 1].count(f.rule) != 0) continue;
    all->push_back(std::move(f));
  }
}

void collect_paths(const fs::path& path, std::vector<fs::path>* files,
                   bool* io_error) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<fs::path> inside;
    for (fs::recursive_directory_iterator it(path, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      const fs::path& p = it->path();
      const std::string ext = p.extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
        inside.push_back(p);
    }
    std::sort(inside.begin(), inside.end());
    files->insert(files->end(), inside.begin(), inside.end());
  } else if (fs::exists(path, ec)) {
    files->push_back(path);
  } else {
    std::cerr << "rxl-lint: no such file or directory: " << path << "\n";
    *io_error = true;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "rxl-lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules)
        std::cout << r.id << "  " << r.summary << "\n";
      return 0;
    } else if (arg == "--root") {
      opt.root = value("--root");
    } else if (arg == "--rules") {
      std::string inside = value("--rules");
      std::replace(inside.begin(), inside.end(), ',', ' ');
      std::istringstream ids(inside);
      std::string id;
      while (ids >> id) opt.rules.insert(id);
    } else if (arg == "--expect") {
      opt.expect = std::stol(value("--expect"));
      opt.expect_set = true;
    } else if (arg == "--treat-as") {
      opt.treat_as = value("--treat-as");
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "rxl-lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      opt.paths.emplace_back(arg);
    }
  }
  for (const std::string& id : opt.rules) {
    const bool known = std::any_of(
        std::begin(kRules), std::end(kRules),
        [&](const RuleInfo& r) { return id == r.id; });
    if (!known) {
      std::cerr << "rxl-lint: unknown rule " << id << "\n";
      return 2;
    }
  }

  bool io_error = false;
  std::vector<fs::path> files;
  if (opt.paths.empty()) {
    collect_paths(opt.root / "src", &files, &io_error);
    collect_paths(opt.root / "include", &files, &io_error);
  } else {
    for (const fs::path& p : opt.paths) collect_paths(p, &files, &io_error);
  }

  std::vector<Finding> findings;
  for (const fs::path& file : files)
    scan_file(file, opt, &findings, &io_error);
  if (io_error) return 2;

  for (const Finding& f : findings)
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  std::cout << "rxl-lint: scanned " << files.size() << " file(s), "
            << findings.size() << " finding(s)\n";
  const long count = static_cast<long>(findings.size());
  return count == (opt.expect_set ? opt.expect : 0) ? 0 : 1;
}
