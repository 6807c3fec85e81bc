// Parser for the HAS specification language. The complete grammar —
// lexical rules, the system/relation/task/service blocks, condition
// and HLTL syntax with precedence, well-formedness rules, and the
// printer's canonical form — is documented in docs/SPEC_FORMAT.md;
// examples/specs/ holds worked examples.
#ifndef HAS_SPEC_PARSER_H_
#define HAS_SPEC_PARSER_H_

#include <string>
#include <utility>
#include <vector>

#include "hltl/hltl.h"
#include "model/artifact_system.h"
#include "model/source_loc.h"

namespace has {

struct ParsedSpec {
  ArtifactSystem system;
  std::vector<std::pair<std::string, HltlProperty>> properties;
  /// Declaration positions of every named entity, for `file:line`
  /// rendering in validator and analyzer diagnostics.
  SpecLocations locations;

  /// Property lookup by name; nullptr if absent.
  const HltlProperty* FindProperty(const std::string& name) const {
    for (const auto& [n, p] : properties) {
      if (n == name) return &p;
    }
    return nullptr;
  }
};

/// Deepest nesting a spec may use, counted along one path through the
/// parse: each open `!`, `(`, unary `-`, temporal operator, `->`,
/// `[φ]@T` and nested task, and each operand of an `&&`, `||` or `U`
/// chain (which builds a left-deep tree). A deeper spec is a parse
/// error, so hostile nesting cannot overflow the stack of the
/// recursive descent or of the passes over the trees it builds; the
/// limit itself parses under the sanitizer build's larger frames too.
inline constexpr int kMaxSpecNesting = 256;

/// Parses a full specification (one system, any number of properties).
StatusOr<ParsedSpec> ParseSpec(const std::string& source);

/// Same, recording `filename` as the source name of the returned
/// locations (diagnostics then render "filename:line" instead of
/// "<spec>:line").
StatusOr<ParsedSpec> ParseSpec(const std::string& source,
                               const std::string& filename);

/// Parses a condition in isolation against a scope/schema (test aid).
StatusOr<CondPtr> ParseCondition(const std::string& source,
                                 const VarScope& scope,
                                 const DatabaseSchema& schema);

}  // namespace has

#endif  // HAS_SPEC_PARSER_H_
