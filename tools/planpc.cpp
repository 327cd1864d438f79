// planpc — the PLAN-P compiler driver.
//
//   planpc check   file.planp      parse + type check
//   planpc analyze file.planp      run the four safety analyses
//   planpc disasm  file.planp      template listing of every block
//   planpc jit     file.planp      codegen stats + the same listing
//   planpc run     file.planp N    feed N synthetic packets through channel 0
//
// This is the "operating system designer" workflow of the paper: evolve the
// DSL in the interpreter, inspect what the specializer generates, then deploy.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "planp/analysis.hpp"
#include "planp/disasm.hpp"
#include "planp/netapi.hpp"
#include "planp/parser.hpp"
#include "planp/program.hpp"

using namespace asp::planp;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: planpc {check|analyze|disasm|jit|run} file.planp [packets]\n");
  return 2;
}

std::string slurp(const char* path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "planpc: cannot read %s\n", path);
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

asp::net::Packet synthetic_packet(const TypePtr& type, int i) {
  std::vector<Value> fields;
  for (const TypePtr& part : type->args()) {
    switch (part->kind()) {
      case Type::Kind::kIp: {
        asp::net::IpHeader h;
        h.src = asp::net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(1 + i % 200));
        h.dst = asp::net::Ipv4Addr(10, 0, 9, 9);
        fields.push_back(Value::of_ip(h));
        break;
      }
      case Type::Kind::kTcp:
        fields.push_back(Value::of_tcp(
            {static_cast<std::uint16_t>(30000 + i), 80, 0, 0, 0, 0}));
        break;
      case Type::Kind::kUdp:
        fields.push_back(
            Value::of_udp({static_cast<std::uint16_t>(30000 + i), 5004}));
        break;
      case Type::Kind::kChar:
        fields.push_back(Value::of_char(static_cast<char>('0' + i % 3)));
        break;
      case Type::Kind::kInt:
        fields.push_back(Value::of_int(i));
        break;
      case Type::Kind::kBool:
        fields.push_back(Value::of_bool(i % 2 == 0));
        break;
      default:
        fields.push_back(Value::of_blob(std::vector<std::uint8_t>(64, 0xAB)));
        break;
    }
  }
  return encode_packet(Value::of_tuple(std::move(fields)), 0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const char* cmd = argv[1];
  std::string source = slurp(argv[2]);

  try {
    CheckedProgram checked = typecheck(parse(source));

    if (std::strcmp(cmd, "check") == 0) {
      std::printf("%s: OK (%zu channels, %zu functions, %zu globals, %d lines)\n",
                  argv[2], checked.channels.size(), checked.functions.size(),
                  checked.globals.size(), checked.program.source_lines);
      return 0;
    }

    if (std::strcmp(cmd, "analyze") == 0) {
      AnalysisReport r = analyze(checked);
      std::printf("local termination    : %s\n", r.local_termination ? "proved" : "NO");
      std::printf("global termination   : %s (%d states) %s\n",
                  r.global_termination ? "proved" : "unproved", r.states_explored,
                  r.global_termination ? "" : ("- " + r.global_termination_detail).c_str());
      std::printf("guaranteed delivery  : %s %s\n",
                  r.guaranteed_delivery ? "proved" : "unproved",
                  r.guaranteed_delivery ? "" : ("- " + r.delivery_detail).c_str());
      std::printf("linear duplication   : %s (%d fix-point iters) %s\n",
                  r.linear_duplication ? "proved" : "unproved", r.fixpoint_iterations,
                  r.linear_duplication ? "" : ("- " + r.duplication_detail).c_str());
      std::printf("download gate        : %s\n",
                  r.accepted() ? "ACCEPT" : "REJECT (authentication required)");
      return r.accepted() ? 0 : 3;
    }

    auto code = std::make_shared<const JitProgram>(checked);

    const bool jit_cmd = std::strcmp(cmd, "jit") == 0;
    if (jit_cmd) {
      const CodegenStats& s = code->stats;
      std::printf("; %d lines -> %zu unfused templates -> %zu templates (%zu bytes)"
                  " in %.4f ms\n",
                  s.source_lines, s.input_instrs, s.output_instrs, s.code_bytes,
                  s.generation_ms);
    }
    if (jit_cmd || std::strcmp(cmd, "disasm") == 0) {
      std::fputs(disassemble(*code).c_str(), stdout);
      return 0;
    }

    NullEnv env;
    JitEngine jit(code, env);

    if (std::strcmp(cmd, "run") == 0) {
      if (checked.channels.empty()) {
        std::fprintf(stderr, "planpc: program has no channels\n");
        return 1;
      }
      int n = argc > 3 ? std::atoi(argv[3]) : 5;
      Value ps = default_value(checked.channels[0]->ps_type);
      Value ss = jit.init_state(0);
      for (int i = 0; i < n; ++i) {
        asp::net::Packet pkt = synthetic_packet(checked.channels[0]->packet_type, i);
        try {
          States out = jit.run_channel(0, ps, ss, pkt);
          ps = std::move(out.ps);
          ss = std::move(out.ss);
          std::printf("packet %d: ps=%s sends=%zu delivers=%zu drops=%d\n", i,
                      ps.str().c_str(), env.sends.size(), env.delivered.size(),
                      env.drops);
        } catch (const PlanPException& e) {
          std::printf("packet %d: PLAN-P exception '%s'\n", i, e.name.c_str());
        }
      }
      if (!env.output.empty()) {
        std::printf("--- program output ---\n%s", env.output.c_str());
      }
      return 0;
    }

    return usage();
  } catch (const PlanPError& e) {
    std::fprintf(stderr, "planpc: %s\n", e.what());
    return 1;
  }
}
