#include "scope.h"

#include <algorithm>
#include <array>
#include <cctype>

namespace detlint {

bool IsPunct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

size_t SkipBalanced(const std::vector<Token>& tokens, size_t open) {
  int paren = 0, bracket = 0, brace = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != Token::Kind::kPunct) continue;
    if (t.text == "(") ++paren;
    if (t.text == ")") --paren;
    if (t.text == "[") ++bracket;
    if (t.text == "]") --bracket;
    if (t.text == "{") ++brace;
    if (t.text == "}") --brace;
    if (paren == 0 && bracket == 0 && brace == 0) return i + 1;
  }
  return tokens.size();
}

size_t SkipTemplateArgs(const std::vector<Token>& tokens, size_t i,
                        size_t limit) {
  if (i >= tokens.size() || !IsPunct(tokens[i], "<")) return i;
  int depth = 0;
  const size_t end = std::min(tokens.size(), i + limit);
  for (size_t j = i; j < end; ++j) {
    const Token& t = tokens[j];
    if (t.kind != Token::Kind::kPunct) continue;
    if (t.text == "<") ++depth;
    if (t.text == ">" && --depth == 0) return j + 1;
    // A template-argument list never crosses a statement or block edge.
    if (t.text == ";" || t.text == "{" || t.text == "}") return i;
  }
  return i;
}

bool IsReservedWord(const std::string& s) {
  static const std::set<std::string> kWords = {
      "if",       "for",      "while",    "switch",   "return",
      "sizeof",   "alignof",  "alignas",  "decltype", "new",
      "delete",   "case",     "catch",    "throw",    "do",
      "else",     "goto",     "void",     "int",      "double",
      "float",    "char",     "bool",     "long",     "short",
      "signed",   "unsigned", "auto",     "const",    "constexpr",
      "static",   "inline",   "virtual",  "explicit", "extern",
      "typedef",  "typename", "template", "using",    "namespace",
      "class",    "struct",   "union",    "enum",     "public",
      "private",  "protected","friend",   "operator", "this",
      "noexcept", "static_cast", "dynamic_cast", "const_cast",
      "reinterpret_cast", "static_assert", "co_return", "co_await",
  };
  return kWords.count(s) > 0;
}

namespace {

bool StartsUpper(const std::string& s) {
  return !s.empty() && std::isupper(static_cast<unsigned char>(s[0])) != 0;
}

bool LooksLikeMacro(const std::string& s) {
  // SHOUTY_CASE identifiers are macros/constants, not class types.
  if (s.find('_') == std::string::npos) return false;
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
  }
  return true;
}

bool LooksLikeVarName(const std::string& s) {
  if (s.empty() || IsReservedWord(s)) return false;
  return std::islower(static_cast<unsigned char>(s[0])) != 0 || s[0] == '_';
}

/// The scope-tree parser: a recursive descent over the token stream that
/// tracks namespace/class nesting and records function definitions (with
/// body ranges) and the call sites inside them.
class Parser {
 public:
  Parser(const std::vector<Token>& tokens, FileIndex* out)
      : t_(tokens), out_(out) {}

  void Run() { ParseScope(0, t_.size(), /*cls=*/""); }

 private:
  /// Parses declarations in [i, end) at namespace/class scope. `cls` is the
  /// innermost enclosing class name (empty at namespace scope).
  void ParseScope(size_t i, size_t end, const std::string& cls) {
    while (i < end) {
      const Token& tok = t_[i];
      if (tok.kind == Token::Kind::kIdent) {
        if (tok.text == "namespace") {
          i = ParseNamespace(i, end, cls);
          continue;
        }
        if (tok.text == "class" || tok.text == "struct" ||
            tok.text == "union") {
          i = ParseClass(i, end, cls);
          continue;
        }
        if (tok.text == "enum") {
          i = SkipEnum(i, end);
          continue;
        }
        if (tok.text == "template") {
          ++i;
          if (i < end && IsPunct(t_[i], "<")) {
            const size_t past = SkipTemplateArgs(t_, i, 400);
            i = past == i ? i + 1 : past;
          }
          continue;
        }
        if (tok.text == "using" || tok.text == "typedef" ||
            tok.text == "static_assert") {
          i = SkipToSemicolon(i, end);
          continue;
        }
        if (tok.text == "extern" && i + 2 < end &&
            t_[i + 1].kind == Token::Kind::kString && IsPunct(t_[i + 2], "{")) {
          // extern "C" { ... } — transparent for scoping.
          ParseScope(i + 3, SkipBalanced(t_, i + 2) - 1, cls);
          i = SkipBalanced(t_, i + 2);
          continue;
        }
        i = ParseDeclOrDef(i, end, cls);
        continue;
      }
      if (IsPunct(tok, "{")) {
        // Stray brace at declaration scope (rare): treat as transparent.
        const size_t past = SkipBalanced(t_, i);
        ParseScope(i + 1, past - 1, cls);
        i = past;
        continue;
      }
      ++i;
    }
  }

  size_t ParseNamespace(size_t i, size_t end, const std::string& cls) {
    size_t j = i + 1;
    // `namespace a::b {`, `namespace {`, or `namespace a = b;`.
    while (j < end && (t_[j].kind == Token::Kind::kIdent ||
                       IsPunct(t_[j], "::"))) {
      ++j;
    }
    if (j < end && IsPunct(t_[j], "=")) return SkipToSemicolon(j, end);
    if (j >= end || !IsPunct(t_[j], "{")) return j + 1;
    const size_t past = SkipBalanced(t_, j);
    // Namespaces do not change member qualification.
    ParseScope(j + 1, past - 1, cls);
    return past;
  }

  size_t ParseClass(size_t i, size_t end, const std::string& cls) {
    size_t j = i + 1;
    // Skip attributes and alignas(...).
    while (j < end && IsPunct(t_[j], "[")) j = SkipBalanced(t_, j);
    if (j < end && IsIdent(t_[j], "alignas") && j + 1 < end &&
        IsPunct(t_[j + 1], "(")) {
      j = SkipBalanced(t_, j + 1);
    }
    std::string name;
    if (j < end && t_[j].kind == Token::Kind::kIdent &&
        !IsReservedWord(t_[j].text)) {
      name = t_[j].text;
      ++j;
      // `struct Cell::Shard { ... }` — the innermost component names
      // the class, matching FunctionDef::cls.
      while (j + 1 < end && IsPunct(t_[j], "::") &&
             t_[j + 1].kind == Token::Kind::kIdent) {
        name = t_[j + 1].text;
        j += 2;
      }
    }
    if (j < end && IsIdent(t_[j], "final")) ++j;
    // Find the body '{' or a ';' (forward declaration / variable of
    // elaborated type). Base clauses may contain template args.
    bool saw_colon = false;
    while (j < end) {
      if (IsPunct(t_[j], ";")) return j + 1;
      if (IsPunct(t_[j], "{")) break;
      if (IsPunct(t_[j], ":")) {
        saw_colon = true;
        ++j;
        continue;
      }
      if (saw_colon && t_[j].kind == Token::Kind::kIdent &&
          !IsReservedWord(t_[j].text) && StartsUpper(t_[j].text) &&
          !name.empty()) {
        // Base-class name (skipping `public`/`virtual` via IsReservedWord
        // and namespace qualifiers via the :: walk below).
        std::string base = t_[j].text;
        size_t k = j + 1;
        while (k + 1 < end && IsPunct(t_[k], "::") &&
               t_[k + 1].kind == Token::Kind::kIdent) {
          base = t_[k + 1].text;
          k += 2;
        }
        out_->bases[name].insert(base);
        j = SkipTemplateArgs(t_, k, 100);
        if (j == k) j = k;
        continue;
      }
      ++j;
    }
    if (j >= end) return end;
    const size_t past = SkipBalanced(t_, j);
    ParseScope(j + 1, past - 1, name.empty() ? cls : name);
    return past;
  }

  size_t SkipEnum(size_t i, size_t end) {
    size_t j = i;
    while (j < end && !IsPunct(t_[j], "{") && !IsPunct(t_[j], ";")) ++j;
    if (j < end && IsPunct(t_[j], "{")) j = SkipBalanced(t_, j);
    while (j < end && !IsPunct(t_[j], ";")) ++j;
    return j < end ? j + 1 : end;
  }

  /// Skips to just past the next ';' at the current nesting level,
  /// stepping over balanced parens/braces/brackets (initializers).
  size_t SkipToSemicolon(size_t i, size_t end) {
    size_t j = i;
    while (j < end) {
      if (IsPunct(t_[j], "(") || IsPunct(t_[j], "{") || IsPunct(t_[j], "[")) {
        j = SkipBalanced(t_, j);
        continue;
      }
      if (IsPunct(t_[j], ";")) return j + 1;
      if (IsPunct(t_[j], "}")) return j;  // scope ended without ';'
      ++j;
    }
    return end;
  }

  /// At an identifier at declaration scope: either a function definition
  /// (record it and scan its body) or some other declaration (skip it).
  size_t ParseDeclOrDef(size_t i, size_t end, const std::string& cls) {
    // Walk forward to the first '(' / '=' / '{' / ';' at this level; the
    // shape of that token decides what we are looking at.
    size_t j = i;
    size_t name_tok = t_.size();
    while (j < end) {
      const Token& tok = t_[j];
      if (tok.kind == Token::Kind::kPunct) {
        if (tok.text == ";") return j + 1;             // plain declaration
        if (tok.text == "=") return SkipToSemicolon(j, end);  // variable init
        if (tok.text == "}") return j;                 // scope ran out
        if (tok.text == "{") return SkipToSemicolon(j, end);  // braced init
        if (tok.text == "[") {
          j = SkipBalanced(t_, j);                     // attribute / array
          continue;
        }
        if (tok.text == "<") {
          const size_t past = SkipTemplateArgs(t_, j, 200);
          if (past == j) return j + 1;  // stray comparison: bail out
          j = past;
          continue;
        }
        if (tok.text == "(") {
          if (name_tok == t_.size()) return SkipToSemicolon(j, end);
          break;
        }
        ++j;
        continue;
      }
      if (tok.kind == Token::Kind::kIdent) {
        if (tok.text == "operator") {
          // operator<sym>( — fold the symbol tokens into the name.
          std::string op = "operator";
          size_t k = j + 1;
          while (k < end && t_[k].kind == Token::Kind::kPunct &&
                 !IsPunct(t_[k], "(")) {
            op += t_[k].text;
            ++k;
          }
          // `operator()` has its own parens before the parameter list.
          if (k + 1 < end && IsPunct(t_[k], "(") && IsPunct(t_[k + 1], ")")) {
            op += "()";
            k += 2;
          }
          if (k >= end || !IsPunct(t_[k], "(")) return SkipToSemicolon(k, end);
          name_tok = j;
          last_name_ = op;
          j = k;
          continue;
        }
        if (!IsReservedWord(tok.text)) {
          name_tok = j;
          last_name_ = tok.text;
        }
        ++j;
        continue;
      }
      ++j;
    }
    if (j >= end || !IsPunct(t_[j], "(")) return j + 1;

    // Parameter list.
    const size_t params_end = SkipBalanced(t_, j) - 1;
    size_t k = params_end + 1;

    // Derive the definition's class: explicit `Qual::name` wins over the
    // lexical class. `~Name` destructors keep the '~'.
    std::string def_name = last_name_;
    std::string def_cls = cls;
    if (name_tok > 0 && IsPunct(t_[name_tok - 1], "~")) {
      def_name = "~" + def_name;
    }
    size_t q = name_tok;
    if (q > 0 && IsPunct(t_[q - 1], "~")) --q;
    if (q >= 2 && IsPunct(t_[q - 1], "::") &&
        t_[q - 2].kind == Token::Kind::kIdent) {
      def_cls = t_[q - 2].text;
    }

    // Trailer: cv-qualifiers, ref-qualifiers, noexcept(...), trailing
    // return, = default / = delete / = 0, constructor initializer lists.
    bool in_init_list = false;
    while (k < end) {
      const Token& tok = t_[k];
      if (tok.kind == Token::Kind::kIdent) {
        if (tok.text == "noexcept" && k + 1 < end && IsPunct(t_[k + 1], "(")) {
          k = SkipBalanced(t_, k + 1);
          continue;
        }
        ++k;
        continue;
      }
      if (IsPunct(tok, ";")) return k + 1;  // declaration only
      if (IsPunct(tok, "=")) return SkipToSemicolon(k, end);  // =default etc.
      if (IsPunct(tok, ":")) {
        in_init_list = true;
        ++k;
        continue;
      }
      if (IsPunct(tok, "->")) {
        ++k;  // trailing return type tokens fall through the ident arm
        continue;
      }
      if (IsPunct(tok, "(") || IsPunct(tok, "[")) {
        k = SkipBalanced(t_, k);
        continue;
      }
      if (IsPunct(tok, "<")) {
        const size_t past = SkipTemplateArgs(t_, k, 200);
        k = past == k ? k + 1 : past;
        continue;
      }
      if (IsPunct(tok, "{")) {
        if (in_init_list && k > 0 &&
            (t_[k - 1].kind == Token::Kind::kIdent &&
             LooksLikeVarName(t_[k - 1].text))) {
          // Member brace-initializer inside the ctor init list.
          k = SkipBalanced(t_, k);
          continue;
        }
        break;  // the body
      }
      if (IsPunct(tok, ",")) {
        ++k;
        continue;
      }
      ++k;
    }
    if (k >= end || !IsPunct(t_[k], "{")) return k;

    const size_t body_end = SkipBalanced(t_, k);
    FunctionDef def;
    def.name = def_name;
    def.cls = def_cls;
    def.line = t_[name_tok].line;
    def.body_begin = k + 1;
    def.body_end = body_end - 1;
    def.body_end_line =
        body_end - 1 < t_.size() ? t_[body_end - 1].line : t_[name_tok].line;
    out_->defs.push_back(def);
    const size_t def_idx = out_->defs.size() - 1;
    CollectCalls(def_idx, def.body_begin, def.body_end);
    // Constructor initializer lists invoke functions too; fold the span
    // between the parameter list and the body into the scan.
    if (in_init_list) CollectCalls(def_idx, params_end + 1, k);
    return body_end;
  }

  /// Records every call site in [begin, end) against `owner`.
  void CollectCalls(size_t owner, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Token& tok = t_[i];
      if (tok.kind != Token::Kind::kIdent || IsReservedWord(tok.text)) {
        continue;
      }
      size_t after = i + 1;
      if (after < end && IsPunct(t_[after], "<")) {
        const size_t past = SkipTemplateArgs(t_, after, 60);
        if (past == after) continue;  // comparison, not a template call
        after = past;
      }
      if (after >= end || !IsPunct(t_[after], "(")) continue;
      // `Type name(args)` declarations look like calls; accepting them only
      // adds benign never-resolving edges, so no filtering is attempted.
      CallSite call;
      call.name = tok.text;
      call.line = tok.line;
      call.token = i;
      call.owner = owner;
      if (i >= 2 && IsPunct(t_[i - 1], "::") &&
          t_[i - 2].kind == Token::Kind::kIdent) {
        call.qualifier = t_[i - 2].text;
      } else if (i >= 2 &&
                 (IsPunct(t_[i - 1], ".") || IsPunct(t_[i - 1], "->")) &&
                 t_[i - 2].kind == Token::Kind::kIdent) {
        call.receiver = t_[i - 2].text;
      }
      out_->calls.push_back(call);
    }
  }

  const std::vector<Token>& t_;
  FileIndex* out_;
  std::string last_name_;
};

/// Liberal flat declaration pass: `Type[*&] name` pairs anywhere in the
/// stream, with CamelCase-type / snake_case-name filtering. Smart pointers
/// record their first template argument. Conflicting re-declarations drop
/// the name from var_types (but keep the first decl_types entry — size
/// estimates tolerate approximation; resolution must not).
void CollectDeclTypes(const std::vector<Token>& t, FileIndex* out) {
  std::set<std::string> conflicted;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    std::string type = t[i].text;
    if (IsReservedWord(type) || LooksLikeMacro(type)) continue;
    size_t j = i + 1;
    // Namespace-qualified type: walk to the last component.
    while (j + 1 < t.size() && IsPunct(t[j], "::") &&
           t[j + 1].kind == Token::Kind::kIdent) {
      type = t[j + 1].text;
      j += 2;
    }
    bool scalarish = !StartsUpper(type);
    // Smart pointers: record the pointee class.
    std::string size_type = type;
    if (j < t.size() && IsPunct(t[j], "<")) {
      const size_t past = SkipTemplateArgs(t, j, 60);
      if (past == j) continue;
      if (type == "shared_ptr" || type == "unique_ptr" ||
          type == "weak_ptr") {
        std::string inner;
        for (size_t p = j + 1; p + 1 < past; ++p) {
          if (t[p].kind == Token::Kind::kIdent && !IsReservedWord(t[p].text) &&
              StartsUpper(t[p].text)) {
            inner = t[p].text;  // last class-looking token wins
          }
        }
        if (!inner.empty()) {
          type = inner;
          scalarish = false;
        }
      }
      j = past;
    }
    bool pointer = false;
    while (j < t.size() &&
           (IsPunct(t[j], "*") || IsPunct(t[j], "&") ||
            IsIdent(t[j], "const"))) {
      if (IsPunct(t[j], "*")) pointer = true;
      ++j;
    }
    if (j >= t.size() || t[j].kind != Token::Kind::kIdent) continue;
    const std::string& name = t[j].text;
    if (!LooksLikeVarName(name)) continue;
    if (j + 1 >= t.size()) continue;
    const Token& next = t[j + 1];
    const bool decl_shaped =
        IsPunct(next, ";") || IsPunct(next, "=") || IsPunct(next, ",") ||
        IsPunct(next, ")") || IsPunct(next, "{") || IsPunct(next, "(");
    if (!decl_shaped) continue;
    // `a * b ;` (multiplication) satisfies the pointer pattern; the
    // CamelCase/snake_case gate above is what keeps this pass honest.
    if (pointer && !StartsUpper(type)) continue;

    if (StartsUpper(type) && !scalarish) {
      auto it = out->var_types.find(name);
      if (it == out->var_types.end()) {
        if (conflicted.count(name) == 0) out->var_types[name] = type;
      } else if (it->second != type) {
        out->var_types.erase(it);
        conflicted.insert(name);
      }
    }
    if (out->decl_types.count(name) == 0) {
      out->decl_types[name] = pointer ? size_type + "*" : size_type;
    }
  }
}

}  // namespace

FileIndex BuildFileIndex(const std::string& path, const FileScan& scan) {
  FileIndex idx;
  idx.path = path;
  idx.scan = &scan;
  Parser parser(scan.tokens, &idx);
  parser.Run();
  CollectDeclTypes(scan.tokens, &idx);
  return idx;
}

size_t DefContainingLine(const FileIndex& idx, int line) {
  size_t best = idx.defs.size();
  int best_span = 0;
  for (size_t i = 0; i < idx.defs.size(); ++i) {
    const FunctionDef& def = idx.defs[i];
    if (line < def.line || line > def.body_end_line) continue;
    const int span = def.body_end_line - def.line;
    if (best == idx.defs.size() || span < best_span) {
      best = i;
      best_span = span;
    }
  }
  return best;
}

bool FunctionAllows(const FileScan& scan, const FunctionDef& def,
                    const std::string& check) {
  auto it = scan.function_allows.lower_bound(def.line);
  for (; it != scan.function_allows.end() && it->first <= def.body_end_line;
       ++it) {
    if (it->second.count(check) > 0 || it->second.count("*") > 0) return true;
  }
  return false;
}

}  // namespace detlint
