// Pass 1 of the detlint v2 engine: one translation unit's token stream is
// parsed into a scope tree (brace / namespace / class tracking on the
// lexer's output) and condensed into a FileIndex — every function
// *definition* with its body token range, every call site inside a body
// with its qualifier or receiver, liberally-collected variable/member
// declarations (for receiver typing), and the class inheritance edges the
// file declares. callgraph.h stitches the per-file indexes into a
// repo-wide function index and approximate call graph; checks.cc runs the
// invariant checks over that.
//
// This is still not a compiler front end. The parser recognizes the
// repo's idioms (Google-style C++17: CamelCase types, snake_case_
// members, out-of-line `Class::Method` definitions, template prefixes,
// constructor initializer lists) precisely enough for name-based call
// resolution; exotic declarator forms degrade to "no index entry", never
// to a crash or a misattributed body.

#ifndef MOBICACHE_TOOLS_DETLINT_SCOPE_H_
#define MOBICACHE_TOOLS_DETLINT_SCOPE_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace detlint {

// ---------------------------------------------------------------------------
// Token-walk helpers shared by the scope parser and the checks.

bool IsPunct(const Token& t, const char* text);
bool IsIdent(const Token& t, const char* text);

/// Index just past the token matching the opener at `open` ("(", "[", "{").
/// All three bracket kinds nest; returns tokens.size() when unbalanced.
size_t SkipBalanced(const std::vector<Token>& tokens, size_t open);

/// If `i` points at '<' that opens a balanced template-argument list (closed
/// within `limit` tokens without crossing ';'), returns the index just past
/// the matching '>'. Otherwise returns `i` unchanged — the '<' was a
/// comparison.
size_t SkipTemplateArgs(const std::vector<Token>& tokens, size_t i,
                        size_t limit);

/// True for C++ keywords that can never be a function name at a call site
/// or definition (control flow, type heads, operators-as-words).
bool IsReservedWord(const std::string& s);

// ---------------------------------------------------------------------------
// The per-file index.

/// One function definition (a body was seen, not just a declaration).
struct FunctionDef {
  /// Unqualified name ("Broadcast", "~Server", "operator==").
  std::string name;
  /// Owning class: the innermost enclosing class for inline members, the
  /// explicit qualifier for out-of-line `Class::Method` definitions (only
  /// the last component: `Cell::Shard::FanOut` records "Shard").
  /// Empty for free functions.
  std::string cls;
  int line = 0;
  int body_end_line = 0;
  /// Token range of the body, exclusive of the braces: [body_begin,
  /// body_end) with tokens[body_begin - 1] == '{'.
  size_t body_begin = 0;
  size_t body_end = 0;
};

/// One call site inside a function body: `name(...)`, `Qual::name(...)`,
/// `recv.name(...)` or `recv->name(...)` (template argument lists between
/// the name and the parens are accepted).
struct CallSite {
  std::string name;
  /// Explicit `Qual::` qualifier (innermost component), or empty.
  std::string qualifier;
  /// Receiver variable for member-access calls, or empty.
  std::string receiver;
  int line = 0;
  /// Index of the name token in the file's stream.
  size_t token = 0;
  /// Index into FileIndex::defs of the enclosing function definition.
  size_t owner = 0;
};

struct FileIndex {
  std::string path;          ///< Repo-relative, forward slashes.
  const FileScan* scan = nullptr;  ///< Not owned.
  std::vector<FunctionDef> defs;
  std::vector<CallSite> calls;
  /// Variable/member/parameter name -> declared class type, collected with
  /// a liberal flat pass (CamelCase type then snake_case name). Pointer and
  /// reference declarations record the pointee type; smart-pointer
  /// declarations (shared_ptr/unique_ptr/weak_ptr) record the first
  /// template argument's class. Names seen with conflicting types are
  /// dropped (resolution must not guess).
  std::map<std::string, std::string> var_types;
  /// Variable name -> lexer-level size estimate category for the capture
  /// budget check: the declared type token (pointee types get a trailing
  /// '*'). Unlike var_types, scalar types are kept.
  std::map<std::string, std::string> decl_types;
  /// class -> direct base classes (public/protected/private alike).
  std::map<std::string, std::set<std::string>> bases;
};

/// Parses one lexed file into its index. `scan` must outlive the result.
FileIndex BuildFileIndex(const std::string& path, const FileScan& scan);

/// Definition (if any) in `idx` whose [line, body_end_line] span contains
/// `line`; returns defs.size() when none does. Innermost span wins.
size_t DefContainingLine(const FileIndex& idx, int line);

/// True when a detlint:allow-function(<check>) directive anywhere inside
/// def's line span suppresses `check` for the whole definition.
bool FunctionAllows(const FileScan& scan, const FunctionDef& def,
                    const std::string& check);

}  // namespace detlint

#endif  // MOBICACHE_TOOLS_DETLINT_SCOPE_H_
