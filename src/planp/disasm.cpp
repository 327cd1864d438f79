#include "planp/disasm.hpp"

#include <cstdarg>
#include <cstdio>

namespace asp::planp {

const char* jop_name(std::int32_t op) {
  switch (op) {
    case jop::kImm: return "Imm";
    case jop::kConst: return "Const";
    case jop::kMove: return "Move";
    case jop::kMove2: return "Move2";
    case jop::kMoveBox: return "MoveBox";
    case jop::kGlobal: return "Global";
    case jop::kBox: return "Box";
    case jop::kUnbox: return "Unbox";
    case jop::kJump: return "Jump";
    case jop::kJumpIfFalse: return "JumpIfFalse";
    case jop::kJumpIfTrue: return "JumpIfTrue";
    case jop::kRaise: return "Raise";
    case jop::kTryPush: return "TryPush";
    case jop::kTryPop: return "TryPop";
    case jop::kReturn: return "Return";
    case jop::kAdd: return "Add";
    case jop::kSub: return "Sub";
    case jop::kMul: return "Mul";
    case jop::kDiv: return "Div";
    case jop::kMod: return "Mod";
    case jop::kEq: return "Eq";
    case jop::kNe: return "Ne";
    case jop::kLt: return "Lt";
    case jop::kLe: return "Le";
    case jop::kGt: return "Gt";
    case jop::kGe: return "Ge";
    case jop::kNot: return "Not";
    case jop::kNeg: return "Neg";
    case jop::kEqBox: return "EqBox";
    case jop::kNeBox: return "NeBox";
    case jop::kCmpBox: return "CmpBox";
    case jop::kConcat: return "Concat";
    case jop::kTuple: return "Tuple";
    case jop::kProj: return "Proj";
    case jop::kPrim: return "Prim";
    case jop::kCallFun: return "CallFun";
    case jop::kSendPacket: return "SendPacket";
    case jop::kSendFields: return "SendFields";
    case jop::kSendValue: return "SendValue";
    case jop::kDrop: return "Drop";
    case jop::kAddImm: return "AddImm*";
    case jop::kSubImm: return "SubImm*";
    case jop::kEqImm: return "EqImm*";
    case jop::kNeImm: return "NeImm*";
    case jop::kLtImm: return "LtImm*";
    case jop::kLeImm: return "LeImm*";
    case jop::kGtImm: return "GtImm*";
    case jop::kGeImm: return "GeImm*";
    case jop::kJumpUnlessEq: return "JumpUnlessEq*";
    case jop::kJumpUnlessNe: return "JumpUnlessNe*";
    case jop::kJumpUnlessLt: return "JumpUnlessLt*";
    case jop::kJumpUnlessLe: return "JumpUnlessLe*";
    case jop::kJumpUnlessGt: return "JumpUnlessGt*";
    case jop::kJumpUnlessGe: return "JumpUnlessGe*";
    case jop::kJumpUnlessEqImm: return "JumpUnlessEqImm*";
    case jop::kJumpUnlessNeImm: return "JumpUnlessNeImm*";
    case jop::kJumpUnlessLtImm: return "JumpUnlessLtImm*";
    case jop::kJumpUnlessLeImm: return "JumpUnlessLeImm*";
    case jop::kJumpUnlessGtImm: return "JumpUnlessGtImm*";
    case jop::kJumpUnlessGeImm: return "JumpUnlessGeImm*";
  }
  return "?";
}

namespace {

std::string fmt(const char* f, ...) {
  char buf[256];
  va_list args;
  va_start(args, f);
  std::vsnprintf(buf, sizeof buf, f, args);
  va_end(args);
  return buf;
}

/// A frame slot: registers r<n>, boxed slots v<n>.
std::string slot(Rep rep, std::int32_t n) {
  return fmt(reg_width(rep) == 0 ? "v%d" : "r%d", n);
}
std::string slot(const Operand& o) { return slot(o.rep, o.slot); }

std::string operands(const std::vector<Operand>& ops) {
  std::string out;
  for (std::size_t i = 0; i < ops.size(); ++i) out += (i > 0 ? ", " : "") + slot(ops[i]);
  return out;
}

}  // namespace

std::string disassemble(const JitBlock& block) {
  std::string out;
  for (std::size_t i = 0; i < block.code.size(); ++i) {
    const TInstr& in = block.code[i];
    const auto* spec = static_cast<const JitSpec*>(in.k);
    const Rep rep = static_cast<Rep>(in.imm);
    const std::int32_t d = in.o[0], a = in.o[1], b = in.o[2];
    out += fmt("%4zu: %-16s", i, jop_name(in.op));
    switch (in.op) {
      case jop::kImm: out += fmt(" r%d ; %lld", d, static_cast<long long>(in.imm)); break;
      case jop::kConst:
        out += " " + slot(rep, d) + " ; " + static_cast<const Value*>(in.k)->str();
        break;
      case jop::kMove:
      case jop::kMove2: out += fmt(" r%d = r%d", d, a); break;
      case jop::kMoveBox: out += fmt(" v%d = v%d", d, a); break;
      case jop::kGlobal: out += " " + slot(rep, d) + fmt(" = global %d", a); break;
      case jop::kBox: out += fmt(" v%d = r%d", d, a); break;
      case jop::kUnbox: out += " " + slot(rep, d) + fmt(" = v%d", a); break;
      case jop::kRaise: out += " ; " + static_cast<const Value*>(in.k)->str(); break;
      case jop::kAdd: case jop::kSub: case jop::kMul: case jop::kDiv: case jop::kMod:
      case jop::kEq: case jop::kNe: case jop::kLt: case jop::kLe: case jop::kGt:
      case jop::kGe:
        out += fmt(" r%d = r%d, r%d", d, a, b);
        break;
      case jop::kNot:
      case jop::kNeg: out += fmt(" r%d = r%d", d, a); break;
      case jop::kEqBox:
      case jop::kNeBox: out += fmt(" r%d = v%d, v%d", d, a, b); break;
      case jop::kCmpBox:
        out += fmt(" r%d = v%d, v%d ; %s", d, a, b,
                   in.imm == 0 ? "<" : in.imm == 1 ? "<=" : in.imm == 2 ? ">" : ">=");
        break;
      case jop::kConcat: out += fmt(" v%d = v%d, v%d", d, a, b); break;
      case jop::kTuple: out += fmt(" v%d = (", d) + operands(spec->ops) + ")"; break;
      case jop::kProj: out += " " + slot(rep, d) + fmt(" = v%d #%d", a, b + 1); break;
      case jop::kPrim: {
        const auto* prim = static_cast<const Primitive*>(in.k);
        out += " " + slot(rep_of(prim->ret), d) + " = " + prim->name + "(";
        for (std::size_t j = 0; j < prim->params.size(); ++j) {
          out += (j > 0 ? ", " : "") + slot(rep_of(prim->params[j]), in.o[j + 1]);
        }
        out += ")";
        break;
      }
      case jop::kCallFun:
        out += " " + slot(rep, d) + fmt(" = fun#%d(", spec->fun) + operands(spec->ops) + ")";
        break;
      case jop::kSendPacket: out += fmt(" kind=%d tag=%d", a, b); break;
      case jop::kSendFields:
        out += fmt(" kind=%d tag=%d (", a, b) + operands(spec->ops) + ")";
        break;
      case jop::kSendValue: out += fmt(" kind=%d tag=%d v%d", a, b, in.o[3]); break;
      case jop::kAddImm: case jop::kSubImm: case jop::kEqImm: case jop::kNeImm:
      case jop::kLtImm: case jop::kLeImm: case jop::kGtImm: case jop::kGeImm:
        out += fmt(" r%d = r%d ; %lld", d, a, static_cast<long long>(in.imm));
        break;
      default:
        break;
    }
    if (is_branch(in.op)) {
      if (in.op >= jop::kJumpUnlessEqImm && in.op <= jop::kJumpUnlessGeImm) {
        out += fmt(" r%d ; %lld", a, static_cast<long long>(in.imm));
      } else if (in.op >= jop::kJumpUnlessEq && in.op <= jop::kJumpUnlessGe) {
        out += fmt(" r%d, r%d", a, b);
      } else if (in.op == jop::kJumpIfFalse || in.op == jop::kJumpIfTrue) {
        out += fmt(" r%d", a);
      }
      out += fmt(" -> %d", d);
    }
    out += '\n';
  }
  return out;
}

std::string disassemble(const JitProgram& prog) {
  const CheckedProgram& src = prog.prog;
  std::string out;
  auto header = [](const JitBlock& b) {
    return fmt("regs=%d, boxes=%d", b.regs, b.boxes);
  };
  for (std::size_t i = 0; i < prog.global_inits.size(); ++i) {
    out += "val " + src.globals[i]->name + ":\n";
    out += disassemble(prog.global_inits[i]);
  }
  for (std::size_t i = 0; i < prog.functions.size(); ++i) {
    const JitBlock& b = prog.functions[i];
    out += "fun " + src.functions[i]->name + " (" + operands(b.params) + " -> " +
           slot(b.result) + ", " + header(b) + "):\n";
    out += disassemble(b);
  }
  for (std::size_t i = 0; i < prog.channel_bodies.size(); ++i) {
    const ChannelDef& c = *src.channels[i];
    const JitBlock& b = prog.channel_bodies[i];
    if (!prog.channel_inits[i].code.empty()) {
      out += "initstate " + c.name + ":\n";
      out += disassemble(prog.channel_inits[i]);
    }
    out += "channel " + c.name + " (" + c.packet_type->str() + ", " + header(b) + "):\n";
    const DecodePlan& plan = src.plans[i];
    for (const PacketField& f : b.fields) {
      out += fmt("      packet #%d -> ", f.index + 1) + slot(f.at);
      const auto field = static_cast<std::size_t>(f.index);
      if (field >= plan.headers()) {
        out += fmt(" (payload byte %u)", plan.fields[field - plan.headers()].offset);
      }
      out += "\n";
    }
    if (b.packet.slot >= 0) out += "      packet -> " + slot(b.packet) + " (decoded)\n";
    out += disassemble(b);
  }
  return out;
}

}  // namespace asp::planp
