// Human-readable listings of specialized PLAN-P code: the templates the JIT
// runs, after fusion and patching. Used by the planpc tool and by tests that
// pin down codegen.
#pragma once

#include <string>

#include "planp/jit.hpp"

namespace asp::planp {

/// One block, one template per line, e.g. "  12: JumpIfFalse      r3 -> 27".
std::string disassemble(const JitBlock& block);

/// Every block of the program (functions, channel bodies and initstates,
/// globals), each under a header naming it.
std::string disassemble(const JitProgram& prog);

/// Template mnemonics; superinstructions end in '*'.
const char* jop_name(std::int32_t op);

}  // namespace asp::planp
