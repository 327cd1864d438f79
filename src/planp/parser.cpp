#include "planp/parser.hpp"

#include <algorithm>
#include <unordered_map>

#include "planp/lexer.hpp"

namespace asp::planp {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  Program program() {
    Program p;
    while (!at(Tok::kEof)) {
      if (at(Tok::kVal)) {
        p.decls.emplace_back(val_def());
      } else if (at(Tok::kFun)) {
        p.decls.emplace_back(fun_def());
      } else if (at(Tok::kChannel)) {
        p.decls.emplace_back(channel_def());
      } else {
        throw err("expected 'val', 'fun' or 'channel'");
      }
    }
    return p;
  }

  ExprPtr single_expr() {
    ExprPtr e = expr();
    expect(Tok::kEof, "trailing input after expression");
    return e;
  }

 private:
  // --- token plumbing -------------------------------------------------------
  const Token& cur() const { return toks_[pos_]; }
  const Token& peek(std::size_t k = 1) const {
    return toks_[std::min(pos_ + k, toks_.size() - 1)];
  }
  bool at(Tok t) const { return cur().kind == t; }
  Token advance() { return toks_[pos_++]; }
  bool accept(Tok t) {
    if (at(t)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Token expect(Tok t, const std::string& what) {
    if (!at(t)) {
      throw err("expected " + tok_name(t) + " (" + what + "), found " +
                tok_name(cur().kind));
    }
    return advance();
  }
  PlanPError err(const std::string& msg) const {
    return PlanPError("parse", cur().loc, msg);
  }

  // --- declarations ---------------------------------------------------------
  ValDef val_def() {
    Loc loc = cur().loc;
    expect(Tok::kVal, "val definition");
    std::string name = expect(Tok::kIdent, "val name").text;
    expect(Tok::kColon, "val type annotation");
    TypePtr t = type();
    expect(Tok::kEq, "val initializer");
    ExprPtr init = expr();
    return ValDef{std::move(name), std::move(t), std::move(init), loc};
  }

  FunDef fun_def() {
    Loc loc = cur().loc;
    expect(Tok::kFun, "fun definition");
    FunDef f;
    f.loc = loc;
    f.name = expect(Tok::kIdent, "function name").text;
    expect(Tok::kLParen, "parameter list");
    if (!at(Tok::kRParen)) {
      do {
        std::string pname = expect(Tok::kIdent, "parameter name").text;
        expect(Tok::kColon, "parameter type");
        f.params.emplace_back(std::move(pname), type());
      } while (accept(Tok::kComma));
    }
    expect(Tok::kRParen, "parameter list");
    expect(Tok::kColon, "return type");
    f.ret = type();
    expect(Tok::kEq, "function body");
    f.body = expr();
    return f;
  }

  ChannelDef channel_def() {
    Loc loc = cur().loc;
    expect(Tok::kChannel, "channel definition");
    ChannelDef c;
    c.loc = loc;
    c.name = expect(Tok::kIdent, "channel name").text;
    expect(Tok::kLParen, "channel parameters");
    c.ps_name = expect(Tok::kIdent, "protocol state name").text;
    expect(Tok::kColon, "protocol state type");
    c.ps_type = type();
    expect(Tok::kComma, "channel parameters");
    c.ss_name = expect(Tok::kIdent, "channel state name").text;
    expect(Tok::kColon, "channel state type");
    c.ss_type = type();
    expect(Tok::kComma, "channel parameters");
    c.p_name = expect(Tok::kIdent, "packet name").text;
    expect(Tok::kColon, "packet type");
    c.packet_type = type();
    expect(Tok::kRParen, "channel parameters");
    if (accept(Tok::kInitstate)) c.init_state = expr();
    expect(Tok::kIs, "channel body");
    c.body = expr();
    return c;
  }

  // --- types ----------------------------------------------------------------
  TypePtr type() {
    std::vector<TypePtr> parts;
    parts.push_back(type_postfix());
    while (accept(Tok::kStar)) parts.push_back(type_postfix());
    if (parts.size() == 1) return parts[0];
    return Type::Tuple(std::move(parts));
  }

  TypePtr type_postfix() {
    if (at(Tok::kLParen)) {
      advance();
      TypePtr first = type();
      if (accept(Tok::kComma)) {
        TypePtr second = type();
        expect(Tok::kRParen, "hash_table type");
        expect(Tok::kHashTable, "hash_table type");
        // Every table type is built here, so this one check keeps the
        // engines from ever hashing a key kind Value::hash() has no rule for.
        if (!is_key_type(first)) {
          throw err("hash_table key type " + first->str() +
                    " is not hashable (want int, bool, char, string, host or a "
                    "tuple of them)");
        }
        TypePtr t = Type::Table(std::move(first), std::move(second));
        // Allow nested tables: ((k,v) hash_table, v2) would re-enter here,
        // but a postfix hash_table on a table is not meaningful; stop.
        return t;
      }
      expect(Tok::kRParen, "type");
      return first;
    }
    return type_atom();
  }

  TypePtr type_atom() {
    static const std::unordered_map<std::string, TypePtr (*)()> names = {
        {"int", &Type::Int},       {"bool", &Type::Bool},
        {"char", &Type::Char},     {"string", &Type::String},
        {"unit", &Type::Unit},     {"host", &Type::Host},
        {"blob", &Type::Blob},     {"ip", &Type::Ip},
        {"tcp", &Type::Tcp},       {"udp", &Type::Udp},
    };
    if (!at(Tok::kIdent)) throw err("expected a type");
    auto it = names.find(cur().text);
    if (it == names.end()) throw err("unknown type '" + cur().text + "'");
    advance();
    return it->second();
  }

  // --- expressions ----------------------------------------------------------
  ExprPtr expr() { return or_expr(); }

  ExprPtr or_expr() {
    ExprPtr lhs = and_expr();
    while (at(Tok::kOr)) {
      Loc loc = advance().loc;
      ExprPtr e = Expr::make(Expr::Kind::kOr, loc);
      e->args.push_back(std::move(lhs));
      e->args.push_back(and_expr());
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr and_expr() {
    ExprPtr lhs = cmp_expr();
    while (at(Tok::kAnd)) {
      Loc loc = advance().loc;
      ExprPtr e = Expr::make(Expr::Kind::kAnd, loc);
      e->args.push_back(std::move(lhs));
      e->args.push_back(cmp_expr());
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr cmp_expr() {
    ExprPtr lhs = add_expr();
    static const std::unordered_map<int, std::string> ops = {
        {static_cast<int>(Tok::kEq), "="},  {static_cast<int>(Tok::kNe), "<>"},
        {static_cast<int>(Tok::kLt), "<"},  {static_cast<int>(Tok::kLe), "<="},
        {static_cast<int>(Tok::kGt), ">"},  {static_cast<int>(Tok::kGe), ">="},
    };
    auto it = ops.find(static_cast<int>(cur().kind));
    if (it != ops.end()) {
      Loc loc = advance().loc;
      ExprPtr e = Expr::make(Expr::Kind::kBinOp, loc);
      e->name = it->second;
      e->args.push_back(std::move(lhs));
      e->args.push_back(add_expr());
      return e;
    }
    return lhs;
  }

  ExprPtr add_expr() {
    ExprPtr lhs = mul_expr();
    for (;;) {
      std::string op;
      if (at(Tok::kPlus)) op = "+";
      else if (at(Tok::kMinus)) op = "-";
      else if (at(Tok::kCaret)) op = "^";
      else break;
      Loc loc = advance().loc;
      ExprPtr e = Expr::make(Expr::Kind::kBinOp, loc);
      e->name = op;
      e->args.push_back(std::move(lhs));
      e->args.push_back(mul_expr());
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr mul_expr() {
    ExprPtr lhs = unary_expr();
    for (;;) {
      std::string op;
      if (at(Tok::kStar)) op = "*";
      else if (at(Tok::kSlash)) op = "/";
      else if (at(Tok::kPercent)) op = "%";
      else break;
      Loc loc = advance().loc;
      ExprPtr e = Expr::make(Expr::Kind::kBinOp, loc);
      e->name = op;
      e->args.push_back(std::move(lhs));
      e->args.push_back(unary_expr());
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr unary_expr() {
    if (at(Tok::kNot)) {
      Loc loc = advance().loc;
      ExprPtr e = Expr::make(Expr::Kind::kUnOp, loc);
      e->name = "not";
      e->args.push_back(unary_expr());
      return e;
    }
    if (at(Tok::kMinus)) {
      Loc loc = advance().loc;
      ExprPtr e = Expr::make(Expr::Kind::kUnOp, loc);
      e->name = "-";
      e->args.push_back(unary_expr());
      return e;
    }
    if (at(Tok::kHash)) {
      Loc loc = advance().loc;
      Token n = expect(Tok::kInt, "projection index");
      ExprPtr e = Expr::make(Expr::Kind::kProj, loc);
      e->proj_index = static_cast<int>(n.int_val);
      e->args.push_back(unary_expr());
      return e;
    }
    return primary();
  }

  ExprPtr primary() {
    Loc loc = cur().loc;
    switch (cur().kind) {
      case Tok::kInt: {
        ExprPtr e = Expr::make(Expr::Kind::kIntLit, loc);
        e->int_val = advance().int_val;
        return e;
      }
      case Tok::kTrue:
      case Tok::kFalse: {
        ExprPtr e = Expr::make(Expr::Kind::kBoolLit, loc);
        e->bool_val = advance().kind == Tok::kTrue;
        return e;
      }
      case Tok::kChar: {
        ExprPtr e = Expr::make(Expr::Kind::kCharLit, loc);
        e->char_val = advance().char_val;
        return e;
      }
      case Tok::kString: {
        ExprPtr e = Expr::make(Expr::Kind::kStringLit, loc);
        e->str_val = advance().text;
        return e;
      }
      case Tok::kHost: {
        ExprPtr e = Expr::make(Expr::Kind::kHostLit, loc);
        e->host_val = advance().host_val;
        return e;
      }
      case Tok::kRaise: {
        advance();
        ExprPtr e = Expr::make(Expr::Kind::kRaise, loc);
        e->str_val = expect(Tok::kString, "exception name").text;
        return e;
      }
      case Tok::kTry: {
        advance();
        ExprPtr e = Expr::make(Expr::Kind::kTry, loc);
        e->args.push_back(expr());
        expect(Tok::kWith, "exception handler");
        e->args.push_back(expr());
        return e;
      }
      case Tok::kIf: {
        advance();
        ExprPtr e = Expr::make(Expr::Kind::kIf, loc);
        e->args.push_back(expr());
        expect(Tok::kThen, "if-then");
        e->args.push_back(expr());
        expect(Tok::kElse, "if-else");
        e->args.push_back(expr());
        return e;
      }
      case Tok::kLet:
        return let_expr();
      case Tok::kLParen:
        return paren_expr();
      case Tok::kIdent:
        return ident_expr();
      default:
        throw err("expected an expression, found " + tok_name(cur().kind));
    }
  }

  ExprPtr let_expr() {
    Loc loc = cur().loc;
    expect(Tok::kLet, "let expression");
    // One or more `val x : t = e` bindings, desugared into nested kLet.
    struct Binding {
      Loc loc;
      std::string name;
      TypePtr type;
      ExprPtr init;
    };
    std::vector<Binding> bindings;
    while (at(Tok::kVal)) {
      Loc bloc = advance().loc;
      std::string name = expect(Tok::kIdent, "binding name").text;
      expect(Tok::kColon, "binding type");
      TypePtr t = type();
      expect(Tok::kEq, "binding initializer");
      bindings.push_back(Binding{bloc, std::move(name), std::move(t), expr()});
    }
    if (bindings.empty()) throw err("let requires at least one 'val' binding");
    expect(Tok::kIn, "let body");
    ExprPtr body = expr();
    expect(Tok::kEnd, "let end");
    for (auto it = bindings.rbegin(); it != bindings.rend(); ++it) {
      ExprPtr e = Expr::make(Expr::Kind::kLet, it->loc);
      e->name = std::move(it->name);
      e->decl_type = std::move(it->type);
      e->args.push_back(std::move(it->init));
      e->args.push_back(std::move(body));
      body = std::move(e);
    }
    if (loc.line != 0) body->loc = loc;
    return body;
  }

  ExprPtr paren_expr() {
    Loc loc = cur().loc;
    expect(Tok::kLParen, "parenthesized expression");
    if (accept(Tok::kRParen)) return Expr::make(Expr::Kind::kUnitLit, loc);
    ExprPtr first = expr();
    if (at(Tok::kSemi)) {
      ExprPtr e = Expr::make(Expr::Kind::kSeq, loc);
      e->args.push_back(std::move(first));
      while (accept(Tok::kSemi)) e->args.push_back(expr());
      expect(Tok::kRParen, "sequence");
      return e;
    }
    if (at(Tok::kComma)) {
      ExprPtr e = Expr::make(Expr::Kind::kTuple, loc);
      e->args.push_back(std::move(first));
      while (accept(Tok::kComma)) e->args.push_back(expr());
      expect(Tok::kRParen, "tuple");
      return e;
    }
    expect(Tok::kRParen, "parenthesized expression");
    return first;
  }

  ExprPtr ident_expr() {
    Token id = advance();
    if (!at(Tok::kLParen)) {
      ExprPtr e = Expr::make(Expr::Kind::kVar, id.loc);
      e->name = id.text;
      return e;
    }
    // Call syntax. OnRemote/OnNeighbor/deliver/drop become kSend nodes.
    advance();  // '('
    if (id.text == "OnRemote" || id.text == "OnNeighbor") {
      ExprPtr e = Expr::make(Expr::Kind::kSend, id.loc);
      e->send_kind = id.text == "OnRemote" ? SendKind::kOnRemote : SendKind::kOnNeighbor;
      e->name = expect(Tok::kIdent, "channel name").text;
      expect(Tok::kComma, "packet argument");
      e->args.push_back(expr());
      expect(Tok::kRParen, id.text);
      return e;
    }
    if (id.text == "deliver") {
      ExprPtr e = Expr::make(Expr::Kind::kSend, id.loc);
      e->send_kind = SendKind::kDeliver;
      e->args.push_back(expr());
      expect(Tok::kRParen, "deliver");
      return e;
    }
    if (id.text == "drop") {
      ExprPtr e = Expr::make(Expr::Kind::kSend, id.loc);
      e->send_kind = SendKind::kDrop;
      expect(Tok::kRParen, "drop");
      return e;
    }
    ExprPtr e = Expr::make(Expr::Kind::kCall, id.loc);
    e->name = id.text;
    if (!at(Tok::kRParen)) {
      do {
        e->args.push_back(expr());
      } while (accept(Tok::kComma));
    }
    expect(Tok::kRParen, "call arguments");
    return e;
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

int count_lines(const std::string& src) {
  int lines = 0;
  bool nonblank = false;
  for (char c : src) {
    if (c == '\n') {
      if (nonblank) ++lines;
      nonblank = false;
    } else if (c != ' ' && c != '\t' && c != '\r') {
      nonblank = true;
    }
  }
  if (nonblank) ++lines;
  return lines;
}

}  // namespace

Program parse(const std::string& source) {
  Parser p(lex(source));
  Program prog = p.program();
  prog.source_lines = count_lines(source);
  return prog;
}

ExprPtr parse_expr(const std::string& source) {
  Parser p(lex(source));
  return p.single_expr();
}

}  // namespace asp::planp
