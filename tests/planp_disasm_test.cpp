#include "planp/disasm.hpp"

#include <gtest/gtest.h>

#include "apps/asp_files.hpp"
#include "net/network.hpp"
#include "planp/parser.hpp"

namespace asp::planp {
namespace {

/// Every block of `code`, in one list.
std::vector<const JitBlock*> blocks(const JitProgram& code) {
  std::vector<const JitBlock*> out;
  for (const auto* v :
       {&code.global_inits, &code.functions, &code.channel_bodies, &code.channel_inits}) {
    for (const JitBlock& b : *v) out.push_back(&b);
  }
  return out;
}

TEST(Disasm, TemplateListingNamesOpsAndConstants) {
  CheckedProgram checked = typecheck(parse(R"(
val limit : int = 7
channel c(ps : int, ss : int, p : ip*blob) initstate 5 is (deliver(p); (ps + 42, ss))
)"));
  std::string listing = disassemble(JitProgram(checked));
  // Every block is listed under its own header; the channel's is followed by
  // none of its packet fields, since the body reads none. Its registers are
  // ps, ss, the ip header (two) and the two new states.
  EXPECT_NE(listing.find("val limit:"), std::string::npos) << listing;
  EXPECT_NE(listing.find("initstate c:"), std::string::npos) << listing;
  EXPECT_NE(listing.find("channel c (ip*blob, regs=6, boxes=2):"), std::string::npos)
      << listing;
  EXPECT_EQ(listing.find("packet #"), std::string::npos) << listing;
  EXPECT_NE(listing.find("AddImm* "), std::string::npos) << listing;
  EXPECT_NE(listing.find("; 42"), std::string::npos);
  EXPECT_NE(listing.find("; 7"), std::string::npos);
  EXPECT_NE(listing.find("SendPacket"), std::string::npos);
  EXPECT_NE(listing.find("Return"), std::string::npos);
}

TEST(Disasm, FusionShowsUpInSpecializedListing) {
  CheckedProgram checked = typecheck(parse(R"(
channel c(ps : int, ss : unit, p : ip*tcp*blob) is
  let val iph : ip = #1 p in
    (deliver(p); (if tcpDst(#2 p) = 80 then ps + 1 else ps, ss))
  end
)"));
  JitProgram fused(checked, /*fuse=*/true);
  JitProgram plain(checked, /*fuse=*/false);
  std::string listing = disassemble(fused.channel_bodies[0]);
  // `val iph = #1 p` shares the packet field's slot (no template);
  // `tcpDst(#2 p)` reads the field loaded in place; the test on `= 80`
  // becomes one compare-and-branch, `ps + 1` one add of an immediate.
  EXPECT_EQ(listing.find("Move2"), std::string::npos) << listing;
  EXPECT_NE(listing.find("tcpDst(r"), std::string::npos) << listing;
  EXPECT_NE(listing.find("JumpUnlessEqImm*"), std::string::npos) << listing;
  EXPECT_NE(listing.find("AddImm*"), std::string::npos) << listing;
  EXPECT_LT(fused.channel_bodies[0].code.size(), plain.channel_bodies[0].code.size());
  // The unfused listing has no superinstructions at all.
  std::string plain_listing = disassemble(plain.channel_bodies[0]);
  EXPECT_EQ(plain_listing.find('*'), std::string::npos) << plain_listing;
}

TEST(Disasm, JumpTargetsStayInRangeAfterFusion) {
  // A branch-heavy function, then every shipped ASP.
  std::vector<std::pair<std::string, std::string>> programs = {{"clas", R"(
fun clas(x : int) : int =
  if x > 100 then 3 else if x > 10 then 2 else if x > 1 then 1 else 0
channel c(ps : int, ss : unit, p : ip*blob) is
  (deliver(p); (clas(ps) + clas(blobLen(#2 p)), ss))
)"}};
  for (const apps::AspFile& f : apps::asp_files()) {
    programs.emplace_back(std::string(f.name), std::string(f.text));
  }
  for (const auto& [name, src] : programs) {
    CheckedProgram checked = typecheck(parse(src));
    JitProgram fused(checked, /*fuse=*/true);
    JitProgram plain(checked, /*fuse=*/false);
    for (const JitProgram* code : {&fused, &plain}) {
      for (const JitBlock* block : blocks(*code)) {
        for (const TInstr& in : block->code) {
          if (is_branch(in.op)) {
            EXPECT_GE(in.o[0], 0) << name;
            EXPECT_LE(in.o[0], static_cast<std::int32_t>(block->code.size())) << name;
          }
        }
      }
    }
    // Fusion only ever merges or drops templates, block by block.
    std::vector<const JitBlock*> fused_blocks = blocks(fused);
    std::vector<const JitBlock*> plain_blocks = blocks(plain);
    ASSERT_EQ(fused_blocks.size(), plain_blocks.size()) << name;
    for (std::size_t i = 0; i < fused_blocks.size(); ++i) {
      EXPECT_LE(fused_blocks[i]->code.size(), plain_blocks[i]->code.size())
          << name << " block " << i;
    }
    EXPECT_EQ(plain.stats.input_instrs, plain.stats.output_instrs) << name;
    EXPECT_EQ(fused.stats.input_instrs, plain.stats.input_instrs) << name;
  }
}

TEST(Disasm, EveryOpcodeHasAName) {
  for (int op = 0; op < static_cast<int>(jop::kCount); ++op) {
    EXPECT_STRNE(jop_name(op), "?") << "jop " << op;
  }
}

}  // namespace
}  // namespace asp::planp
