#include "core/parser.h"

#include <cctype>
#include <string>
#include <vector>

namespace gerel {

namespace {

enum class TokenKind {
  kIdent,
  kQuoted,  // 'quoted constant' with \' and \\ escapes; text is unescaped.
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kPeriod,
  kArrow,
  kBang,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  Span span;  // Byte range in the source buffer (quotes included).
};

// "line L:C: message" plus a caret snippet of the offending line.
Status LocatedError(std::string_view source, Span span,
                    const std::string& message) {
  LineCol lc = OffsetToLineCol(source, span.begin);
  std::string out = "line " + std::to_string(lc.line) + ":" +
                    std::to_string(lc.col) + ": " + message;
  std::string snippet = CaretSnippet(source, span);
  if (!snippet.empty()) {
    out += "\n";
    // Snippet ends with '\n'; strip it so the status message does not.
    snippet.pop_back();
    out += snippet;
  }
  return Status::Error(out);
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      uint32_t start = static_cast<uint32_t>(pos_);
      auto single = [&](TokenKind kind, const char* text) {
        out.push_back({kind, text, {start, start + 1}});
        ++pos_;
      };
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '%' || c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (c == '(') {
        single(TokenKind::kLParen, "(");
      } else if (c == ')') {
        single(TokenKind::kRParen, ")");
      } else if (c == '[') {
        single(TokenKind::kLBracket, "[");
      } else if (c == ']') {
        single(TokenKind::kRBracket, "]");
      } else if (c == ',') {
        single(TokenKind::kComma, ",");
      } else if (c == '.') {
        single(TokenKind::kPeriod, ".");
      } else if (c == '!') {
        single(TokenKind::kBang, "!");
      } else if (c == '-' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '>') {
        out.push_back({TokenKind::kArrow, "->", {start, start + 2}});
        pos_ += 2;
      } else if (c == '\'') {
        // Quoted constant: any characters up to the closing quote, with
        // \' and \\ escapes. (A ' *inside* an identifier is part of the
        // identifier; only a leading ' opens a quote.)
        ++pos_;
        std::string text;
        bool closed = false;
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          char d = text_[pos_];
          if (d == '\\' && pos_ + 1 < text_.size()) {
            text += text_[pos_ + 1];
            pos_ += 2;
          } else if (d == '\'') {
            ++pos_;
            closed = true;
            break;
          } else {
            text += d;
            ++pos_;
          }
        }
        Span span{start, static_cast<uint32_t>(pos_)};
        if (!closed) {
          return LocatedError(text_, span, "unterminated quoted constant");
        }
        if (text.empty()) {
          return LocatedError(text_, span, "empty quoted constant");
        }
        out.push_back({TokenKind::kQuoted, std::move(text), span});
      } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_' || text_[pos_] == '\'' ||
                text_[pos_] == '#')) {
          ++pos_;
        }
        Span span{start, static_cast<uint32_t>(pos_)};
        out.push_back({TokenKind::kIdent,
                       std::string(text_.substr(start, pos_ - start)), span});
      } else {
        return LocatedError(text_, {start, start + 1},
                            "unexpected character '" + std::string(1, c) +
                                "'");
      }
    }
    uint32_t end = static_cast<uint32_t>(text_.size());
    out.push_back({TokenKind::kEnd, "", {end, end}});
    return out;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  Parser(std::string_view text, std::vector<Token> tokens,
         SymbolTable* symbols, SourceMap* source_map)
      : text_(text),
        tokens_(std::move(tokens)),
        symbols_(symbols),
        map_(source_map) {}

  Result<Program> ParseProgram() {
    Program program;
    while (Peek().kind != TokenKind::kEnd) {
      Result<void*> st = ParseStatement(&program);
      if (!st.ok()) return st.status();
    }
    return program;
  }

  Result<Rule> ParseSingleRule() {
    Result<Rule> r = ParseRuleTokens(nullptr);
    if (!r.ok()) return r;
    if (Peek().kind == TokenKind::kPeriod) Advance();
    if (Peek().kind != TokenKind::kEnd) return Err("trailing input");
    return r;
  }

  Result<Atom> ParseSingleAtom() {
    Result<Atom> a = ParseAtomTokens(nullptr);
    if (!a.ok()) return a;
    if (Peek().kind == TokenKind::kPeriod) Advance();
    if (Peek().kind != TokenKind::kEnd) return Err("trailing input");
    return a;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Err(const std::string& message) const {
    return LocatedError(text_, Peek().span, message);
  }

  // A statement is either a rule (contains "->") or a single ground fact.
  Result<void*> ParseStatement(Program* program) {
    // Lookahead for an arrow before the closing period.
    bool is_rule = false;
    for (size_t i = pos_; i < tokens_.size(); ++i) {
      if (tokens_[i].kind == TokenKind::kArrow) {
        is_rule = true;
        break;
      }
      if (tokens_[i].kind == TokenKind::kPeriod) {
        // Periods also appear after "exists X,Y" — but that is always
        // after an arrow, so the first period before any arrow ends a
        // fact.
        break;
      }
      if (tokens_[i].kind == TokenKind::kEnd) break;
    }
    if (is_rule) {
      RuleSpans spans;
      Result<Rule> r = ParseRuleTokens(map_ != nullptr ? &spans : nullptr);
      if (!r.ok()) return r.status();
      if (Peek().kind != TokenKind::kPeriod) return Err("expected '.'");
      Advance();
      program->theory.AddRule(std::move(r).value());
      if (map_ != nullptr) map_->rules.push_back(std::move(spans));
      return nullptr;
    }
    // Spans are always collected here — the "fact contains variables"
    // error needs one even without a SourceMap attached.
    AtomSpans spans;
    Result<Atom> a = ParseAtomTokens(&spans);
    if (!a.ok()) return a.status();
    if (Peek().kind != TokenKind::kPeriod) return Err("expected '.'");
    Advance();
    if (!a.value().IsDatabaseAtom()) {
      return LocatedError(text_, spans.span, "fact contains variables");
    }
    if (program->database.Insert(a.value()) && map_ != nullptr) {
      map_->facts.push_back(std::move(spans));
    }
    return nullptr;
  }

  Result<Rule> ParseRuleTokens(RuleSpans* spans) {
    Rule rule;
    Span rule_span = Peek().span;
    if (Peek().kind != TokenKind::kArrow) {
      // Parse body literals.
      while (true) {
        bool negated = false;
        if (Peek().kind == TokenKind::kBang ||
            (Peek().kind == TokenKind::kIdent && Peek().text == "not")) {
          negated = true;
          Advance();
        }
        AtomSpans aspans;
        Result<Atom> a = ParseAtomTokens(spans != nullptr ? &aspans : nullptr);
        if (!a.ok()) return a.status();
        rule.body.emplace_back(std::move(a).value(), negated);
        if (spans != nullptr) spans->body.push_back(std::move(aspans));
        if (Peek().kind == TokenKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (Peek().kind != TokenKind::kArrow) return Err("expected '->'");
    Advance();
    // Optional "exists X, Y."
    if (Peek().kind == TokenKind::kIdent && Peek().text == "exists") {
      Advance();
      while (true) {
        if (Peek().kind != TokenKind::kIdent) return Err("expected variable");
        const Token& tok = Advance();
        const std::string& name = tok.text;
        if (!std::isupper(static_cast<unsigned char>(name[0]))) {
          return LocatedError(
              text_, tok.span,
              "existential variable must start upper-case: " + name);
        }
        // Interning suffices; EVars() recomputes the set from occurrences.
        Term v = symbols_->Variable(name);
        if (spans != nullptr) spans->declared_evars.emplace_back(v, tok.span);
        if (Peek().kind == TokenKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
      if (Peek().kind != TokenKind::kPeriod) return Err("expected '.'");
      Advance();
    }
    while (true) {
      AtomSpans aspans;
      Result<Atom> a = ParseAtomTokens(spans != nullptr ? &aspans : nullptr);
      if (!a.ok()) return a.status();
      rule_span = Span::Join(rule_span, aspans.span);
      rule.head.push_back(std::move(a).value());
      if (spans != nullptr) spans->head.push_back(std::move(aspans));
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    if (spans != nullptr) {
      for (const AtomSpans& a : spans->head) {
        rule_span = Span::Join(rule_span, a.span);
      }
      spans->span = rule_span;
    }
    return rule;
  }

  Result<Atom> ParseAtomTokens(AtomSpans* spans) {
    if (Peek().kind != TokenKind::kIdent) return Err("expected relation name");
    const Token& name_tok = Advance();
    std::string name = name_tok.text;
    Span atom_span = name_tok.span;
    Atom atom;
    if (Peek().kind == TokenKind::kLBracket) {
      Advance();
      Result<std::vector<Term>> ts = ParseTermList(
          TokenKind::kRBracket, spans != nullptr ? &spans->annotation : nullptr,
          &atom_span);
      if (!ts.ok()) return ts.status();
      atom.annotation = std::move(ts).value();
    }
    if (Peek().kind == TokenKind::kLParen) {
      Advance();
      Result<std::vector<Term>> ts = ParseTermList(
          TokenKind::kRParen, spans != nullptr ? &spans->args : nullptr,
          &atom_span);
      if (!ts.ok()) return ts.status();
      atom.args = std::move(ts).value();
    }
    // Arity consistency is a parse error, not a crash.
    if (RelationId existing = symbols_->FindRelation(name);
        existing != kUnknownRelation) {
      int recorded = symbols_->RelationArity(existing);
      if (recorded >= 0 && recorded != static_cast<int>(atom.arity())) {
        return LocatedError(
            text_, atom_span,
            "relation '" + name + "' used with arity " +
                std::to_string(atom.arity()) + " but declared with " +
                std::to_string(recorded));
      }
    }
    atom.pred = symbols_->Relation(name, static_cast<int>(atom.arity()));
    if (spans != nullptr) spans->span = atom_span;
    return atom;
  }

  Result<std::vector<Term>> ParseTermList(TokenKind closer,
                                          std::vector<Span>* term_spans,
                                          Span* enclosing) {
    std::vector<Term> out;
    auto close = [&]() {
      *enclosing = Span::Join(*enclosing, Peek().span);
      Advance();
    };
    if (Peek().kind == closer) {
      close();
      return out;
    }
    while (true) {
      if (Peek().kind == TokenKind::kQuoted) {
        const Token& tok = Advance();
        out.push_back(symbols_->Constant(tok.text));
        if (term_spans != nullptr) term_spans->push_back(tok.span);
        if (Peek().kind == TokenKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
      if (Peek().kind != TokenKind::kIdent) return Status(Err("expected term"));
      const Token& tok = Advance();
      const std::string& name = tok.text;
      if (name[0] == '_') {
        out.push_back(symbols_->NamedNull(name));
      } else if (std::isupper(static_cast<unsigned char>(name[0]))) {
        out.push_back(symbols_->Variable(name));
      } else {
        out.push_back(symbols_->Constant(name));
      }
      if (term_spans != nullptr) term_spans->push_back(tok.span);
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    if (Peek().kind != closer) return Status(Err("expected closing bracket"));
    close();
    return out;
  }

  std::string_view text_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  SymbolTable* symbols_;
  SourceMap* map_;
};

Result<Parser> MakeParser(std::string_view text, SymbolTable* symbols,
                          SourceMap* source_map) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  return Parser(text, std::move(tokens).value(), symbols, source_map);
}

}  // namespace

Result<Program> ParseProgram(std::string_view text, SymbolTable* symbols) {
  return ParseProgram(text, symbols, nullptr);
}

Result<Program> ParseProgram(std::string_view text, SymbolTable* symbols,
                             SourceMap* source_map) {
  if (source_map != nullptr) source_map->Reset(text);
  Result<Parser> p = MakeParser(text, symbols, source_map);
  if (!p.ok()) return p.status();
  return p.value().ParseProgram();
}

Result<Theory> ParseTheory(std::string_view text, SymbolTable* symbols) {
  Result<Program> prog = ParseProgram(text, symbols);
  if (!prog.ok()) return prog.status();
  if (!prog.value().database.empty()) {
    return Status::Error("expected rules only, found facts");
  }
  return std::move(prog).value().theory;
}

Result<Database> ParseDatabase(std::string_view text, SymbolTable* symbols) {
  Result<Program> prog = ParseProgram(text, symbols);
  if (!prog.ok()) return prog.status();
  if (!prog.value().theory.empty()) {
    return Status::Error("expected facts only, found rules");
  }
  return std::move(prog).value().database;
}

Result<Rule> ParseRule(std::string_view text, SymbolTable* symbols) {
  Result<Parser> p = MakeParser(text, symbols, nullptr);
  if (!p.ok()) return p.status();
  return p.value().ParseSingleRule();
}

Result<Atom> ParseAtom(std::string_view text, SymbolTable* symbols) {
  Result<Parser> p = MakeParser(text, symbols, nullptr);
  if (!p.ok()) return p.status();
  return p.value().ParseSingleAtom();
}

}  // namespace gerel
