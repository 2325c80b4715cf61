#include "check/checker.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace tvbf::check {

namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

/// Comment/string-free view of a source file. Comments and the contents of
/// string/char literals are blanked to spaces (newlines preserved, so
/// offsets map to the same line numbers), and `tvbf-check: allow(<rule>)`
/// markers found inside comments are recorded by line.
struct Stripped {
  std::string text;
  /// line -> rules suppressed on that line and the next.
  std::map<int, std::set<std::string>> suppressions;
};

void record_suppressions(const std::string& comment, int line,
                         Stripped& out) {
  const std::string tag = "tvbf-check: allow(";
  std::size_t pos = 0;
  while ((pos = comment.find(tag, pos)) != std::string::npos) {
    const std::size_t open = pos + tag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    out.suppressions[line].insert(comment.substr(open, close - open));
    pos = close;
  }
}

Stripped strip(const std::string& src) {
  Stripped out;
  out.text.assign(src.size(), ' ');
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  auto copy = [&](std::size_t at) { out.text[at] = src[at]; };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      out.text[i] = '\n';
      ++line;
      ++i;
    } else if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      record_suppressions(src.substr(start, i - start), line, out);
    } else if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t start = i;
      const int start_line = line;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          out.text[i] = '\n';
          ++line;
        }
        ++i;
      }
      i = std::min(n, i + 2);
      record_suppressions(src.substr(start, i - start), start_line, out);
    } else if (c == '"') {
      // Raw strings are not used in the tree; plain escapes only. Literals
      // on preprocessor-directive lines (#include paths) are kept verbatim
      // so the layering pass can read them; all others are blanked.
      std::size_t bol = i;
      while (bol > 0 && src[bol - 1] != '\n') --bol;
      while (bol < i && (src[bol] == ' ' || src[bol] == '\t')) ++bol;
      const bool directive = src[bol] == '#';
      copy(i);
      ++i;
      while (i < n && src[i] != '"' && src[i] != '\n') {
        if (directive) copy(i);
        if (src[i] == '\\' && i + 1 < n) {
          ++i;
          if (directive) copy(i);
        }
        ++i;
      }
      if (i < n && src[i] == '"') {
        copy(i);
        ++i;
      }
    } else if (c == '\'' && (i == 0 || !is_ident(src[i - 1]))) {
      // The identifier-char guard keeps digit separators (1'000) out.
      ++i;
      while (i < n && src[i] != '\'' && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      if (i < n && src[i] == '\'') ++i;
    } else {
      copy(i);
      ++i;
    }
  }
  return out;
}

int line_at(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(
                 std::count(text.begin(), text.begin() +
                                static_cast<std::ptrdiff_t>(pos),
                            '\n'));
}

bool word_boundary_before(const std::string& text, std::size_t pos) {
  return pos == 0 || !is_ident(text[pos - 1]);
}

std::size_t skip_ws(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0)
    ++pos;
  return pos;
}

/// Returns the position just past the ')' matching the '(' at `open`, or
/// npos when unbalanced.
std::size_t match_paren(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

bool path_allowed(const std::vector<std::string>& prefixes,
                  const std::string& path) {
  for (const auto& p : prefixes)
    if (starts_with(path, p)) return true;
  return false;
}

struct PassContext {
  const Config& config;
  const std::string& path;
  const std::string& raw;
  const Stripped& stripped;
  const std::set<std::string>& atomic_names;
  std::vector<Finding>& findings;

  bool suppressed(int line, const std::string& rule) const {
    for (int l : {line, line - 1}) {
      auto it = stripped.suppressions.find(l);
      if (it != stripped.suppressions.end() && it->second.count(rule) > 0)
        return true;
    }
    return false;
  }

  void emit(int line, const std::string& rule, std::string message) {
    if (!suppressed(line, rule)) {
      findings.push_back({path, line, rule, std::move(message)});
    }
  }
};

// ---------------------------------------------------------------------------
// Pass 1: include-layering DAG

std::map<std::string, int> layer_index(const Config& config) {
  std::map<std::string, int> index;
  for (std::size_t l = 0; l < config.layers.size(); ++l)
    for (const auto& mod : config.layers[l])
      index[mod] = static_cast<int>(l);
  return index;
}

void pass_layering(PassContext& ctx) {
  const std::string mod =
      ctx.path.substr(4, ctx.path.find('/', 4) - 4);  // src/<mod>/...
  const auto layers = layer_index(ctx.config);
  const auto self = layers.find(mod);
  // A module missing from the config is reported once per tree in
  // check_tree; per-file we only check the edges we can rank.
  std::istringstream lines(ctx.stripped.text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    std::size_t pos = skip_ws(line, 0);
    if (pos >= line.size() || line[pos] != '#') continue;
    pos = skip_ws(line, pos + 1);
    if (line.compare(pos, 7, "include") != 0) continue;
    pos = skip_ws(line, pos + 7);
    if (pos >= line.size() || line[pos] != '"') continue;  // <system> is free
    const std::size_t close = line.find('"', pos + 1);
    if (close == std::string::npos) continue;
    const std::string target = line.substr(pos + 1, close - pos - 1);
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) {
      ctx.emit(line_no, "layering",
               "quoted include \"" + target +
                   "\" is not module-qualified (use \"module/header.hpp\")");
      continue;
    }
    const std::string target_mod = target.substr(0, slash);
    if (target_mod == mod) continue;
    const auto it = layers.find(target_mod);
    if (it == layers.end()) {
      ctx.emit(line_no, "layering",
               "include of unknown module \"" + target_mod +
                   "\" (add it to a layer in tvbf-check.conf)");
      continue;
    }
    if (self == layers.end()) continue;
    if (it->second > self->second) {
      ctx.emit(line_no, "layering",
               "back-edge: module \"" + mod + "\" (layer " +
                   std::to_string(self->second) + ") includes \"" + target +
                   "\" from higher layer " + std::to_string(it->second));
    } else if (it->second == self->second) {
      ctx.emit(line_no, "layering",
               "same-layer cross-module include: \"" + mod +
                   "\" and \"" + target_mod +
                   "\" share layer " + std::to_string(self->second));
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 2: atomics discipline

struct AtomicOp {
  const char* name;
  int required_orders;
};

constexpr AtomicOp kAtomicOps[] = {
    {"load", 1},          {"store", 1},
    {"exchange", 1},      {"fetch_add", 1},
    {"fetch_sub", 1},     {"fetch_and", 1},
    {"fetch_or", 1},      {"fetch_xor", 1},
    {"compare_exchange_weak", 2},
    {"compare_exchange_strong", 2},
};

/// Reads the identifier that ends just before `end` (exclusive); empty when
/// the receiver is not a plain identifier (e.g. a call-chain result).
std::string receiver_before(const std::string& text, std::size_t end) {
  std::size_t i = end;
  if (i > 0 && text[i - 1] == ']') {  // skip an index: name[expr].op(...)
    int depth = 0;
    while (i > 0) {
      --i;
      if (text[i] == ']') ++depth;
      if (text[i] == '[' && --depth == 0) break;
    }
  }
  std::size_t stop = i;
  while (stop > 0 && is_ident(text[stop - 1])) --stop;
  return text.substr(stop, i - stop);
}

void pass_atomics(PassContext& ctx) {
  if (path_allowed(ctx.config.atomics_allow_implicit, ctx.path)) return;
  const std::string& text = ctx.stripped.text;
  for (const AtomicOp& op : kAtomicOps) {
    const std::string needle = op.name;
    std::size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += needle.size();
      // Must be an exact member-call token: `.name(` or `->name(`.
      if (!word_boundary_before(text, start) || start == 0) continue;
      const bool dot = text[start - 1] == '.';
      const bool arrow = start >= 2 && text[start - 1] == '>' &&
                         text[start - 2] == '-';
      if (!dot && !arrow) continue;
      const std::size_t after = skip_ws(text, start + needle.size());
      if (after >= text.size() || text[after] != '(') continue;
      const std::string recv =
          receiver_before(text, start - (dot ? 1 : 2));
      if (ctx.atomic_names.count(recv) == 0) continue;
      const std::size_t close = match_paren(text, after);
      if (close == std::string::npos) continue;
      const std::string args = text.substr(after, close - after);
      int orders = 0;
      for (std::size_t p = 0; (p = args.find("memory_order", p)) !=
                              std::string::npos;
           p += 12)
        ++orders;
      if (orders < op.required_orders) {
        const int line = line_at(text, start);
        std::string msg = "atomic " + std::string(op.name) + " on '" + recv +
                          "' ";
        if (op.required_orders == 2) {
          msg += orders == 0
                     ? "needs explicit success AND failure std::memory_order "
                       "arguments"
                     : "needs an explicit failure std::memory_order (the "
                       "two-argument form)";
        } else {
          msg += "needs an explicit std::memory_order argument (implicit "
                 "seq_cst; allowlist the file if deliberate)";
        }
        ctx.emit(line, "atomic-order", msg);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 3: contract / hygiene

void pass_pragma_once(PassContext& ctx) {
  if (ctx.path.size() < 4 ||
      ctx.path.compare(ctx.path.size() - 4, 4, ".hpp") != 0)
    return;
  std::istringstream lines(ctx.raw);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t pos = skip_ws(line, 0);
    if (line.compare(pos, 12, "#pragma once") == 0) return;
  }
  ctx.emit(1, "pragma-once", "header is missing #pragma once");
}

void pass_banned_calls(PassContext& ctx) {
  // Call-like identifiers banned in library code. snprintf/vsnprintf are
  // allowed (bounded, no stream side effects); common/rng.hpp replaces
  // rand(); naked stdout writes belong in examples/, not src/.
  static const char* const kBanned[] = {"printf", "fprintf", "vprintf",
                                        "sprintf", "vsprintf", "puts",
                                        "rand",   "srand"};
  const std::string& text = ctx.stripped.text;
  for (const char* name : kBanned) {
    const std::string needle = name;
    std::size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += needle.size();
      if (!word_boundary_before(text, start)) continue;
      const std::size_t end = start + needle.size();
      if (end < text.size() && is_ident(text[end])) continue;
      if (skip_ws(text, end) >= text.size() ||
          text[skip_ws(text, end)] != '(')
        continue;
      ctx.emit(line_at(text, start), "banned-call",
               std::string(name) +
                   " is banned in library code (snprintf for formatting, "
                   "common/rng.hpp for randomness, a caller-provided sink "
                   "for output)");
    }
  }
}

void pass_naked_new_delete(PassContext& ctx) {
  const std::string& text = ctx.stripped.text;
  for (const char* name : {"new", "delete"}) {
    const std::string needle = name;
    std::size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += needle.size();
      if (!word_boundary_before(text, start)) continue;
      const std::size_t end = start + needle.size();
      if (end < text.size() && is_ident(text[end])) continue;
      if (needle == "delete") {
        // `= delete;` (deleted special member) is not a deallocation.
        std::size_t before = start;
        while (before > 0 && std::isspace(static_cast<unsigned char>(
                                 text[before - 1])) != 0)
          --before;
        if (before > 0 && text[before - 1] == '=') continue;
        ctx.emit(line_at(text, start), "naked-delete",
                 "naked delete in library code (own memory with "
                 "unique_ptr/containers)");
      } else {
        ctx.emit(line_at(text, start), "naked-new",
                 "naked new in library code (use std::make_unique; "
                 "deliberate leaks need a tvbf-check: allow(naked-new) "
                 "comment with a reason)");
      }
    }
  }
}

void pass_threads(PassContext& ctx) {
  if (path_allowed(ctx.config.thread_allow, ctx.path)) return;
  const std::string& text = ctx.stripped.text;
  for (const char* name : {"std::thread", "std::jthread"}) {
    const std::string needle = name;
    std::size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += needle.size();
      const std::size_t end = start + needle.size();
      if (end < text.size() && is_ident(text[end])) continue;
      // std::thread::hardware_concurrency() is type access, not ownership.
      if (end + 1 < text.size() && text[end] == ':' && text[end + 1] == ':')
        continue;
      ctx.emit(line_at(text, start), "thread",
               std::string(name) +
                   " outside the thread-owner allowlist (fan work out via "
                   "common/parallel.hpp, or add the file to [threads] in "
                   "tvbf-check.conf with a reason)");
    }
  }
}

void pass_require_side_effects(PassContext& ctx) {
  const std::string& text = ctx.stripped.text;
  for (const char* name : {"TVBF_REQUIRE", "TVBF_ENSURE"}) {
    const std::string needle = name;
    std::size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += needle.size();
      if (!word_boundary_before(text, start)) continue;
      const std::size_t open = skip_ws(text, start + needle.size());
      if (open >= text.size() || text[open] != '(') continue;
      // First macro argument: balanced up to a top-level comma.
      std::size_t i = open + 1;
      int depth = 0;
      const std::size_t cond_begin = i;
      while (i < text.size()) {
        const char c = text[i];
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') {
          if (c == ')' && depth == 0) break;
          --depth;
        }
        if (c == ',' && depth == 0) break;
        ++i;
      }
      const std::string cond = text.substr(cond_begin, i - cond_begin);
      bool side_effect = cond.find("++") != std::string::npos ||
                         cond.find("--") != std::string::npos;
      for (std::size_t p = 0; !side_effect && p < cond.size(); ++p) {
        if (cond[p] != '=') continue;
        const char prev = p > 0 ? cond[p - 1] : ' ';
        const char next = p + 1 < cond.size() ? cond[p + 1] : ' ';
        if (next == '=' ||
            std::string("=!<>+-*/%&|^").find(prev) != std::string::npos)
          continue;  // comparison or compound operator
        side_effect = true;
      }
      if (side_effect) {
        ctx.emit(line_at(text, start), "require-side-effect",
                 std::string(name) +
                     " condition has a side effect (++/--/assignment); "
                     "contracts must be pure — hoist the mutation out");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 4: instrument naming

void pass_instruments(PassContext& ctx) {
  if (ctx.config.instrument_prefixes.empty()) return;
  const std::string& text = ctx.stripped.text;
  for (const char* method : {"counter", "gauge", "histogram"}) {
    const std::string needle = method;
    std::size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += needle.size();
      // Must be an exact member-call token: `.name(` or `->name(`.
      if (!word_boundary_before(text, start) || start == 0) continue;
      const bool dot = text[start - 1] == '.';
      const bool arrow =
          start >= 2 && text[start - 1] == '>' && text[start - 2] == '-';
      if (!dot && !arrow) continue;
      const std::size_t end = start + needle.size();
      if (end < text.size() && is_ident(text[end])) continue;
      const std::size_t open = skip_ws(text, end);
      if (open >= text.size() || text[open] != '(') continue;
      const std::size_t arg = skip_ws(text, open + 1);
      // Only a string-literal first argument is checkable here; a name
      // forwarded through a variable was someone else's literal.
      if (arg >= text.size() || text[arg] != '"') continue;
      // strip() blanks literal contents at identical offsets, so the name
      // is read back from the raw text.
      std::size_t close = arg + 1;
      std::string name;
      while (close < ctx.raw.size() && ctx.raw[close] != '"' &&
             ctx.raw[close] != '\n') {
        name += ctx.raw[close];
        ++close;
      }
      if (close >= ctx.raw.size() || ctx.raw[close] != '"') continue;
      const int line = line_at(text, start);
      bool charset_ok = !name.empty();
      for (char c : name) {
        const bool lower = c >= 'a' && c <= 'z';
        const bool digit = c >= '0' && c <= '9';
        if (!lower && !digit && c != '_' && c != '.') charset_ok = false;
      }
      if (!charset_ok) {
        ctx.emit(line, "instrument-name",
                 "instrument name \"" + name +
                     "\" must be dotted lowercase ([a-z0-9_.])");
        continue;
      }
      // Prefix and dot-shape checks apply only when the literal is the
      // whole name; a fragment composed with + ("serve.session." + id)
      // gets the charset check alone.
      const std::size_t after = skip_ws(text, close + 1);
      if (after >= text.size() || (text[after] != ')' && text[after] != ','))
        continue;
      if (name.front() == '.' || name.back() == '.' ||
          name.find("..") != std::string::npos) {
        ctx.emit(line, "instrument-name",
                 "instrument name \"" + name +
                     "\" has a leading, trailing or doubled dot");
        continue;
      }
      if (!path_allowed(ctx.config.instrument_prefixes, name)) {
        ctx.emit(line, "instrument-name",
                 "instrument name \"" + name +
                     "\" lacks a namespace prefix from [instruments] in "
                     "tvbf-check.conf");
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API

Config parse_config(const std::string& text) {
  Config config;
  std::set<std::string> seen_modules;
  std::istringstream lines(text);
  std::string line;
  std::string section;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::size_t begin = skip_ws(line, 0);
    std::size_t end = line.size();
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(line[end - 1])) != 0)
      --end;
    line = line.substr(begin, end - begin);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']')
        throw std::runtime_error("tvbf-check.conf:" + std::to_string(line_no) +
                                 ": malformed section header");
      section = line.substr(1, line.size() - 2);
      if (section != "layers" && section != "atomics" &&
          section != "threads" && section != "instruments")
        throw std::runtime_error("tvbf-check.conf:" + std::to_string(line_no) +
                                 ": unknown section [" + section + "]");
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("tvbf-check.conf:" + std::to_string(line_no) +
                               ": expected key = value");
    std::string key = line.substr(0, eq);
    while (!key.empty() &&
           std::isspace(static_cast<unsigned char>(key.back())) != 0)
      key.pop_back();
    std::string value = line.substr(eq + 1);
    std::istringstream words(value);
    if (section == "layers" && key == "layer") {
      std::vector<std::string> mods;
      std::string mod;
      while (words >> mod) {
        if (!seen_modules.insert(mod).second)
          throw std::runtime_error("tvbf-check.conf:" +
                                   std::to_string(line_no) + ": module \"" +
                                   mod + "\" listed in two layers");
        mods.push_back(mod);
      }
      if (mods.empty())
        throw std::runtime_error("tvbf-check.conf:" + std::to_string(line_no) +
                                 ": empty layer");
      config.layers.push_back(std::move(mods));
    } else if (section == "atomics" && key == "allow_implicit") {
      std::string path;
      words >> path;
      config.atomics_allow_implicit.push_back(path);
    } else if (section == "threads" && key == "allow") {
      std::string path;
      words >> path;
      config.thread_allow.push_back(path);
    } else if (section == "instruments" && key == "prefix") {
      std::string prefix;
      words >> prefix;
      config.instrument_prefixes.push_back(prefix);
    } else {
      throw std::runtime_error("tvbf-check.conf:" + std::to_string(line_no) +
                               ": unknown key \"" + key + "\" in section [" +
                               section + "]");
    }
  }
  if (config.layers.empty())
    throw std::runtime_error("tvbf-check.conf: no [layers] declared");
  return config;
}

std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

void collect_atomic_names(const std::string& content,
                          std::set<std::string>& out) {
  const Stripped stripped = strip(content);
  const std::string& text = stripped.text;
  const std::string needle = "std::atomic";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    std::size_t i = pos + needle.size();
    pos = i;
    // Accept std::atomic_bool and friends as well as std::atomic<...>.
    while (i < text.size() && is_ident(text[i])) ++i;
    i = skip_ws(text, i);
    if (i < text.size() && text[i] == '<') {
      int depth = 0;
      while (i < text.size()) {
        if (text[i] == '<') ++depth;
        if (text[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
        ++i;
      }
    }
    i = skip_ws(text, i);
    while (i < text.size() && (text[i] == '&' || text[i] == '*'))
      i = skip_ws(text, i + 1);
    const std::size_t name_begin = i;
    while (i < text.size() && is_ident(text[i])) ++i;
    if (i > name_begin) out.insert(text.substr(name_begin, i - name_begin));
  }
}

std::vector<Finding> check_file(const Config& config, const std::string& path,
                                const std::string& content,
                                const std::set<std::string>& atomic_names) {
  std::vector<Finding> findings;
  const Stripped stripped = strip(content);
  PassContext ctx{config, path, content, stripped, atomic_names, findings};
  const bool library = starts_with(path, "src/");
  if (library) {
    pass_layering(ctx);
    pass_pragma_once(ctx);
    pass_banned_calls(ctx);
    pass_naked_new_delete(ctx);
    pass_threads(ctx);
    pass_instruments(ctx);
  }
  pass_atomics(ctx);
  pass_require_side_effects(ctx);
  return findings;
}

std::vector<Finding> check_tree(const Config& config,
                                const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<Finding> findings;
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tests", "bench", "examples"}) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<std::pair<std::string, std::string>> sources;  // relpath, text
  sources.reserve(files.size());
  std::set<std::string> atomic_names;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string rel = fs::relative(file, root).generic_string();
    sources.emplace_back(std::move(rel), buf.str());
    collect_atomic_names(sources.back().second, atomic_names);
  }
  for (const auto& [rel, text] : sources) {
    auto file_findings = check_file(config, rel, text, atomic_names);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }

  // Every src/ module must be ranked, or the layering pass silently skips
  // its edges.
  const auto layers = layer_index(config);
  const fs::path src = fs::path(root) / "src";
  if (fs::exists(src)) {
    for (const auto& entry : fs::directory_iterator(src)) {
      if (!entry.is_directory()) continue;
      const std::string mod = entry.path().filename().string();
      if (layers.find(mod) == layers.end()) {
        findings.push_back({"src/" + mod, 1, "layering",
                            "module \"" + mod +
                                "\" is not assigned to any layer in "
                                "tvbf-check.conf"});
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

}  // namespace tvbf::check
