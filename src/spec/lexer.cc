#include "spec/lexer.h"

#include <cctype>

#include "common/strings.h"

namespace has {
namespace {

/// The character starting at source[i], printable in an error message:
/// a whole well-formed UTF-8 code point as is (its length taken from
/// the lead byte, each continuation byte checked, RFC 3629 ranges, so
/// no overlong forms or surrogates), otherwise the lead byte as \xHH —
/// the message stays valid UTF-8 whatever the input bytes were. ASCII
/// control characters print as \xHH too.
std::string DescribeCharAt(const std::string& source, size_t i) {
  const auto byte = [&](size_t k) {
    return static_cast<unsigned char>(source[k]);
  };
  const unsigned char lead = byte(i);
  size_t len = 0;
  unsigned char lo = 0x80, hi = 0xBF;  // allowed range of the 2nd byte
  if (lead >= 0x20 && lead < 0x7F) {
    len = 1;
  } else if (lead >= 0xC2 && lead <= 0xDF) {
    len = 2;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    len = 3;
    if (lead == 0xE0) lo = 0xA0;  // overlong
    if (lead == 0xED) hi = 0x9F;  // UTF-16 surrogates
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    len = 4;
    if (lead == 0xF0) lo = 0x90;  // overlong
    if (lead == 0xF4) hi = 0x8F;  // beyond U+10FFFF
  }
  bool ok = len > 0 && i + len <= source.size();
  for (size_t k = 1; ok && k < len; ++k) {
    const unsigned char b = byte(i + k);
    ok = k == 1 ? (b >= lo && b <= hi) : (b >= 0x80 && b <= 0xBF);
  }
  if (ok) return source.substr(i, len);
  static constexpr char kHex[] = "0123456789ABCDEF";
  return std::string{'\\', 'x', kHex[lead >> 4], kHex[lead & 0xF]};
}

}  // namespace

StatusOr<std::vector<Token>> Tokenize(const std::string& source) {
  std::vector<Token> out;
  int line = 1, column = 1;
  size_t i = 0;
  auto push = [&](TokKind kind, std::string text) {
    out.push_back(Token{kind, std::move(text), line, column});
  };
  while (i < source.size()) {
    char c = source[i];
    if (c == '\n') {
      ++line;
      column = 1;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++column;
      ++i;
      continue;
    }
    if (c == '#' || (c == '/' && i + 1 < source.size() &&
                     source[i + 1] == '/')) {
      while (i < source.size() && source[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < source.size() &&
             (std::isalnum(static_cast<unsigned char>(source[i])) ||
              source[i] == '_')) {
        ++i;
      }
      push(TokKind::kIdent, source.substr(start, i - start));
      column += static_cast<int>(i - start);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < source.size() &&
             (std::isdigit(static_cast<unsigned char>(source[i])) ||
              source[i] == '.')) {
        ++i;
      }
      push(TokKind::kNumber, source.substr(start, i - start));
      column += static_cast<int>(i - start);
      continue;
    }
    auto two = [&](char a, char b) {
      return c == a && i + 1 < source.size() && source[i + 1] == b;
    };
    if (two('-', '>')) {
      push(TokKind::kArrow, "->");
      i += 2;
      column += 2;
      continue;
    }
    if (two('<', '-')) {
      push(TokKind::kLArrow, "<-");
      i += 2;
      column += 2;
      continue;
    }
    if (two('=', '=')) {
      push(TokKind::kEq, "==");
      i += 2;
      column += 2;
      continue;
    }
    if (two('!', '=')) {
      push(TokKind::kNe, "!=");
      i += 2;
      column += 2;
      continue;
    }
    if (two('<', '=')) {
      push(TokKind::kLe, "<=");
      i += 2;
      column += 2;
      continue;
    }
    if (two('>', '=')) {
      push(TokKind::kGe, ">=");
      i += 2;
      column += 2;
      continue;
    }
    if (two('&', '&')) {
      push(TokKind::kAnd, "&&");
      i += 2;
      column += 2;
      continue;
    }
    if (two('|', '|')) {
      push(TokKind::kOr, "||");
      i += 2;
      column += 2;
      continue;
    }
    TokKind kind;
    switch (c) {
      case '{':
        kind = TokKind::kLBrace;
        break;
      case '}':
        kind = TokKind::kRBrace;
        break;
      case '(':
        kind = TokKind::kLParen;
        break;
      case ')':
        kind = TokKind::kRParen;
        break;
      case '[':
        kind = TokKind::kLBracket;
        break;
      case ']':
        kind = TokKind::kRBracket;
        break;
      case ',':
        kind = TokKind::kComma;
        break;
      case ';':
        kind = TokKind::kSemi;
        break;
      case ':':
        kind = TokKind::kColon;
        break;
      case '@':
        kind = TokKind::kAt;
        break;
      case '<':
        kind = TokKind::kLt;
        break;
      case '>':
        kind = TokKind::kGt;
        break;
      case '+':
        kind = TokKind::kPlus;
        break;
      case '-':
        kind = TokKind::kMinus;
        break;
      case '*':
        kind = TokKind::kStar;
        break;
      case '!':
        kind = TokKind::kNot;
        break;
      default:
        return Status::InvalidArgument(
            StrCat("line ", line, ": unexpected character '",
                   DescribeCharAt(source, i), "'"));
    }
    push(kind, std::string(1, c));
    ++i;
    ++column;
  }
  push(TokKind::kEnd, "");
  return out;
}

}  // namespace has
