#include "planp/disasm.hpp"

#include <cstdarg>
#include <cstdio>

namespace asp::planp {

const char* jop_name(std::int32_t op) {
  switch (op) {
    case jop::kConst: return "Const";
    case jop::kLoadLocal: return "LoadLocal";
    case jop::kStoreLocal: return "StoreLocal";
    case jop::kLoadGlobal: return "LoadGlobal";
    case jop::kJump: return "Jump";
    case jop::kJumpIfFalse: return "JumpIfFalse";
    case jop::kJumpIfTrue: return "JumpIfTrue";
    case jop::kPop: return "Pop";
    case jop::kMakeTuple: return "MakeTuple";
    case jop::kProj: return "Proj";
    case jop::kCallPrim: return "CallPrim";
    case jop::kCallFun: return "CallFun";
    case jop::kNot: return "Not";
    case jop::kNeg: return "Neg";
    case jop::kRaise: return "Raise";
    case jop::kTryPush: return "TryPush";
    case jop::kTryPop: return "TryPop";
    case jop::kSend: return "Send";
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
    case jop::kConcat: return "Concat";
    case jop::kProjLocal: return "ProjLocal*";
    case jop::kMoveField: return "MoveField*";
    case jop::kCallPrim1L: return "CallPrim1L*";
    case jop::kEqConst: return "EqConst*";
    case jop::kReturnLocal: return "ReturnLocal*";
    case jop::kSendConst: return "SendConst*";
    case jop::kAddConstLocal: return "AddConstLocal*";
    case jop::kReturnPairLocal: return "ReturnPairLocal*";
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

}  // namespace

std::string disassemble(const JitBlock& block) {
  std::string out;
  for (std::size_t i = 0; i < block.code.size(); ++i) {
    const SInstr& in = block.code[i];
    out += fmt("%4zu: %-12s", i, jop_name(in.op));
    switch (in.op) {
      case jop::kConst:
      case jop::kEqConst:
      case jop::kRaise:
        out += fmt(" ; %s", in.k != nullptr ? in.k->str().c_str() : "?");
        break;
      case jop::kJump:
      case jop::kJumpIfFalse:
      case jop::kJumpIfTrue:
      case jop::kTryPush:
        out += fmt(" -> %d", in.a);
        break;
      case jop::kCallPrim:
      case jop::kCallPrim1L:
        out += fmt(" %s", in.prim != nullptr ? in.prim->name.c_str() : "?");
        if (in.op == jop::kCallPrim1L) out += fmt("(local %d)", in.a);
        break;
      case jop::kCallFun:
        out += fmt(" fun#%d/%d", in.a, in.b);
        break;
      case jop::kProjLocal:
        out += fmt(" local %d field %d", in.a, in.b);
        break;
      case jop::kMoveField:
        out += fmt(" local %d field %d -> local %d", in.a, in.b & 0xFFFF, in.b >> 16);
        break;
      case jop::kLoadLocal:
      case jop::kStoreLocal:
      case jop::kLoadGlobal:
      case jop::kMakeTuple:
      case jop::kProj:
      case jop::kReturnLocal:
        out += fmt(" %d", in.a);
        break;
      case jop::kSend:
        out += fmt(" kind=%d chan=%s", in.a,
                   in.k != nullptr ? in.k->str().c_str() : "?");
        break;
      case jop::kSendConst:
        out += fmt(" kind=%d tag=%d ; %s", in.a, in.b,
                   in.k != nullptr ? in.k->str().c_str() : "?");
        break;
      case jop::kAddConstLocal:
        out += fmt(" local %d ; %s", in.a,
                   in.k != nullptr ? in.k->str().c_str() : "?");
        break;
      case jop::kReturnPairLocal:
        out += fmt(" local %d", in.a);
        break;
      default:
        break;
    }
    out += '\n';
  }
  return out;
}

std::string disassemble(const JitProgram& prog) {
  const CheckedProgram& src = prog.prog;
  std::string out;
  for (std::size_t i = 0; i < prog.global_inits.size(); ++i) {
    out += "val " + src.globals[i]->name + ":\n";
    out += disassemble(prog.global_inits[i]);
  }
  for (std::size_t i = 0; i < prog.functions.size(); ++i) {
    out += "fun " + src.functions[i]->name +
           " (slots=" + std::to_string(prog.functions[i].frame_slots) + "):\n";
    out += disassemble(prog.functions[i]);
  }
  for (std::size_t i = 0; i < prog.channel_bodies.size(); ++i) {
    const ChannelDef& c = *src.channels[i];
    if (!prog.channel_inits[i].code.empty()) {
      out += "initstate " + c.name + ":\n";
      out += disassemble(prog.channel_inits[i]);
    }
    out += "channel " + c.name + " (" + c.packet_type->str() +
           ", slots=" + std::to_string(prog.channel_bodies[i].frame_slots) + "):\n";
    out += disassemble(prog.channel_bodies[i]);
  }
  return out;
}

}  // namespace asp::planp
