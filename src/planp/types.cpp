#include "planp/types.hpp"

namespace asp::planp {

bool Type::equals(const Type& o) const {
  if (kind_ != o.kind_) return false;
  if (kind_ == Kind::kVar) return var_id_ == o.var_id_;
  if (args_.size() != o.args_.size()) return false;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (!args_[i]->equals(*o.args_[i])) return false;
  }
  return true;
}

std::string Type::str() const {
  switch (kind_) {
    case Kind::kInt: return "int";
    case Kind::kBool: return "bool";
    case Kind::kChar: return "char";
    case Kind::kString: return "string";
    case Kind::kUnit: return "unit";
    case Kind::kHost: return "host";
    case Kind::kBlob: return "blob";
    case Kind::kIp: return "ip";
    case Kind::kTcp: return "tcp";
    case Kind::kUdp: return "udp";
    case Kind::kTuple: {
      std::string s;
      for (std::size_t i = 0; i < args_.size(); ++i) {
        if (i > 0) s += '*';
        bool paren = args_[i]->is_tuple();
        if (paren) s += '(';
        s += args_[i]->str();
        if (paren) s += ')';
      }
      return s;
    }
    case Kind::kTable:
      return "(" + args_[0]->str() + ", " + args_[1]->str() + ") hash_table";
    case Kind::kVar:
      return "'" + std::string(1, static_cast<char>('a' + var_id_ % 26));
    case Kind::kBottom:
      return "_|_";
  }
  return "?";
}

namespace {
TypePtr make_base(Type::Kind k) { return std::make_shared<Type>(k); }
}  // namespace

#define BASE_SINGLETON(Name, K)                        \
  TypePtr Type::Name() {                               \
    static const TypePtr t = make_base(Type::Kind::K); \
    return t;                                          \
  }

BASE_SINGLETON(Int, kInt)
BASE_SINGLETON(Bool, kBool)
BASE_SINGLETON(Char, kChar)
BASE_SINGLETON(String, kString)
BASE_SINGLETON(Unit, kUnit)
BASE_SINGLETON(Host, kHost)
BASE_SINGLETON(Blob, kBlob)
BASE_SINGLETON(Ip, kIp)
BASE_SINGLETON(Tcp, kTcp)
BASE_SINGLETON(Udp, kUdp)
BASE_SINGLETON(Bottom, kBottom)
#undef BASE_SINGLETON

TypePtr Type::Var(int id) {
  return std::make_shared<Type>(Kind::kVar, std::vector<TypePtr>{}, id);
}

TypePtr Type::Tuple(std::vector<TypePtr> elems) {
  return std::make_shared<Type>(Kind::kTuple, std::move(elems));
}

TypePtr Type::Table(TypePtr key, TypePtr value) {
  return std::make_shared<Type>(Kind::kTable,
                                std::vector<TypePtr>{std::move(key), std::move(value)});
}

bool is_key_type(const TypePtr& t) {
  switch (t->kind()) {
    case Type::Kind::kInt:
    case Type::Kind::kBool:
    case Type::Kind::kChar:
    case Type::Kind::kString:
    case Type::Kind::kHost:
      return true;
    case Type::Kind::kTuple:
      for (const auto& e : t->args()) {
        if (!is_key_type(e)) return false;
      }
      return true;
    default:
      return false;
  }
}

bool is_equality_type(const TypePtr& t) {
  if (is_key_type(t)) return true;
  return t->is(Type::Kind::kUnit);
}

bool is_packet_type(const TypePtr& t) {
  if (!t->is_tuple() || t->args().empty()) return false;
  const auto& parts = t->args();
  if (!parts[0]->is(Type::Kind::kIp)) return false;
  std::size_t i = 1;
  if (i < parts.size() &&
      (parts[i]->is(Type::Kind::kTcp) || parts[i]->is(Type::Kind::kUdp))) {
    ++i;
  }
  // Remaining parts: scalar payload fields, with an optional trailing blob.
  for (; i < parts.size(); ++i) {
    switch (parts[i]->kind()) {
      case Type::Kind::kChar:
      case Type::Kind::kInt:
      case Type::Kind::kBool:
        break;
      case Type::Kind::kBlob:
        return i == parts.size() - 1;  // blob swallows the rest
      default:
        return false;
    }
  }
  return true;
}

}  // namespace asp::planp
