// Systematic coverage of the PLAN-P primitive library: every primitive,
// every overload, including the exceptions they raise.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "planp/interp.hpp"
#include "planp/parser.hpp"

namespace asp::planp {
namespace {

Value eval(const std::string& type, const std::string& expr, NullEnv* env = nullptr) {
  static NullEnv scratch;
  NullEnv& e = env != nullptr ? *env : scratch;
  CheckedProgram p = typecheck(parse("val x : " + type + " = " + expr));
  Interp interp(p, e);
  return interp.global(0);
}

std::int64_t eval_int(const std::string& expr) { return eval("int", expr).as_int(); }
bool eval_bool(const std::string& expr) { return eval("bool", expr).as_bool(); }
std::string eval_str(const std::string& expr) { return eval("string", expr).as_string(); }

// --- output ------------------------------------------------------------------

TEST(Primitives, PrintOverloads) {
  NullEnv env;
  eval("unit",
       "(print(\"s\"); print(1); print(true); print('c'); print(9.8.7.6))", &env);
  EXPECT_EQ(env.output, "s1truec9.8.7.6");
}

TEST(Primitives, PrintlnAppendsNewline) {
  NullEnv env;
  eval("unit", "(println(1); println(false))", &env);
  EXPECT_EQ(env.output, "1\nfalse\n");
}

// --- conversions ----------------------------------------------------------------

TEST(Primitives, Conversions) {
  EXPECT_EQ(eval_str("intToString(-42)"), "-42");
  EXPECT_EQ(eval_str("hostToString(10.0.0.1)"), "10.0.0.1");
  EXPECT_EQ(eval_int("stringToInt(\"123\")"), 123);
  EXPECT_EQ(eval_int("stringToInt(\"-7\")"), -7);
  EXPECT_EQ(eval_int("try stringToInt(\"12x\") with -1"), -1);
  EXPECT_EQ(eval_int("try stringToInt(\"\") with -1"), -1);
  EXPECT_EQ(eval("host", "stringToHost(\"1.2.3.4\")").as_host().str(), "1.2.3.4");
  EXPECT_EQ(eval_int("try hostToInt(stringToHost(\"nope\")) with -1"), -1);
  EXPECT_EQ(eval_int("hostToInt(0.0.0.7)"), 7);
}

TEST(Primitives, CharFamily) {
  EXPECT_EQ(eval_int("charPos('0')"), 48);
  EXPECT_EQ(eval_int("ord('z')"), 122);
  EXPECT_EQ(eval("char", "chr(97)").as_char(), 'a');
  EXPECT_EQ(eval_int("try charPos(chr(-1)) with -5"), -5);
  EXPECT_EQ(eval_int("try charPos(chr(256)) with -5"), -5);
  EXPECT_EQ(eval_int("charPos(chr(255))"), 255);
}

TEST(Primitives, IntHelpers) {
  EXPECT_EQ(eval_int("abs(-9)"), 9);
  EXPECT_EQ(eval_int("abs(9)"), 9);
  EXPECT_EQ(eval_int("min(3, -2)"), -2);
  EXPECT_EQ(eval_int("max(3, -2)"), 3);
}

// --- strings ----------------------------------------------------------------------

TEST(Primitives, StringFamily) {
  EXPECT_EQ(eval_int("stringLen(\"\")"), 0);
  EXPECT_EQ(eval_str("substring(\"abcdef\", 2, 3)"), "cde");
  EXPECT_EQ(eval_str("substring(\"abc\", 0, 0)"), "");
  EXPECT_EQ(eval_str("try substring(\"abc\", 1, 5) with \"oops\""), "oops");
  EXPECT_EQ(eval_str("try substring(\"abc\", -1, 2) with \"oops\""), "oops");
  EXPECT_TRUE(eval_bool("startsWith(\"PLAY movie\", \"PLAY \")"));
  EXPECT_FALSE(eval_bool("startsWith(\"PL\", \"PLAY\")"));
  EXPECT_TRUE(eval_bool("startsWith(\"x\", \"\")"));
  EXPECT_EQ(eval_int("strIndex(\"abcabc\", \"bc\")"), 1);
  EXPECT_EQ(eval_int("strIndex(\"abc\", \"\")"), 0);
}

TEST(Primitives, StrWord) {
  EXPECT_EQ(eval_str("strWord(\"PLAY movie.mpg 7000\", 0)"), "PLAY");
  EXPECT_EQ(eval_str("strWord(\"PLAY movie.mpg 7000\", 1)"), "movie.mpg");
  EXPECT_EQ(eval_str("strWord(\"PLAY movie.mpg 7000\", 2)"), "7000");
  EXPECT_EQ(eval_str("strWord(\"  a   b \", 1)"), "b");
  EXPECT_EQ(eval_str("try strWord(\"a b\", 2) with \"none\""), "none");
  EXPECT_EQ(eval_str("try strWord(\"\", 0) with \"none\""), "none");
}

// --- hash tables --------------------------------------------------------------------

TEST(Primitives, TableFamily) {
  EXPECT_EQ(eval_int(R"(
let val t : (string, int) hash_table = mkTable(4)
    val a : unit = tableSet(t, "k", 1)
    val b : unit = tableSet(t, "k", 2)   -- overwrite
in tableGet(t, "k") + tableSize(t) end)"),
            3);
  EXPECT_TRUE(eval_bool(R"(
let val t : (int, bool) hash_table = mkTable(4)
    val a : unit = tableSet(t, 5, true)
    val r : unit = tableRemove(t, 5)
in not tableMem(t, 5) and tableSize(t) = 0 end)"));
  EXPECT_EQ(eval_int(R"(
let val t : (int, int) hash_table = mkTable(4)
in tableGetDefault(t, 9, 42) end)"),
            42);
  // mkTable tolerates degenerate sizes.
  EXPECT_EQ(eval_int(
      "let val t : (int, int) hash_table = mkTable(0) in tableSize(t) end"), 0);
}

// --- headers -----------------------------------------------------------------------

TEST(Primitives, IpHeaderFamily) {
  NullEnv env;
  CheckedProgram p = typecheck(parse(R"(
channel c(ps : unit, ss : unit, p : ip*blob) is
  let val h : ip = ipTosSet(ipSrcSet(ipDestSet(#1 p, 1.1.1.1), 2.2.2.2), 7)
  in
    (println(ipSrc(h)); println(ipDst(h)); println(ipTos(h));
     println(ipTtl(h)); println(ipProto(h));
     println(isMulticast(224.0.0.1)); println(isMulticast(ipDst(h)));
     deliver(p); (ps, ss))
  end
)"));
  Interp interp(p, env);
  asp::net::IpHeader hdr;
  hdr.src = asp::net::ip("9.9.9.9");
  hdr.dst = asp::net::ip("8.8.8.8");
  hdr.ttl = 33;
  hdr.proto = asp::net::IpProto::kUdp;
  asp::net::Packet pkt;
  pkt.ip = hdr;
  interp.run_channel(0, Value::unit(), Value::unit(), pkt);
  EXPECT_EQ(env.output, "2.2.2.2\n1.1.1.1\n7\n33\n17\ntrue\nfalse\n");
}

TEST(Primitives, TcpHeaderFamily) {
  NullEnv env;
  CheckedProgram p = typecheck(parse(R"(
channel c(ps : unit, ss : unit, p : ip*tcp*blob) is
  let val t : tcp = tcpSrcSet(tcpDstSet(#2 p, 8080), 999)
  in
    (println(tcpSrc(t)); println(tcpDst(t)); println(tcpSeq(t));
     println(tcpAckNo(t)); println(tcpSyn(t)); println(tcpAck(t));
     println(tcpFin(t)); println(tcpRst(t));
     deliver(p); (ps, ss))
  end
)"));
  Interp interp(p, env);
  asp::net::TcpHeader t{1, 2, 100, 200, asp::net::tcpflag::kSyn, 0};
  interp.run_channel(0, Value::unit(), Value::unit(),
                     asp::net::Packet::make_tcp({}, {}, t, {}));
  EXPECT_EQ(env.output, "999\n8080\n100\n200\ntrue\nfalse\nfalse\nfalse\n");
}

TEST(Primitives, UdpHeaderFamily) {
  NullEnv env;
  CheckedProgram p = typecheck(parse(R"(
channel c(ps : unit, ss : unit, p : ip*udp*blob) is
  let val u : udp = udpSrcSet(udpDstSet(#2 p, 53), 5353)
  in (println(udpSrc(u)); println(udpDst(u)); deliver(p); (ps, ss)) end
)"));
  Interp interp(p, env);
  interp.run_channel(0, Value::unit(), Value::unit(),
                     asp::net::Packet::make_udp({}, {}, 1, 2, {}));
  EXPECT_EQ(env.output, "5353\n53\n");
}

// --- blobs --------------------------------------------------------------------------

TEST(Primitives, BlobFamily) {
  EXPECT_EQ(eval_int("blobLen(blobFromString(\"hello\"))"), 5);
  EXPECT_EQ(eval_str("blobToString(blobFromString(\"round\"))"), "round");
  EXPECT_EQ(eval_int("blobByte(blobFromString(\"A\"), 0)"), 65);
  EXPECT_EQ(eval_int("try blobByte(blobFromString(\"A\"), 1) with -1"), -1);
  EXPECT_EQ(eval_int("try blobByte(blobFromString(\"A\"), -1) with -1"), -1);
  EXPECT_EQ(eval_str("blobToString(blobSub(blobFromString(\"abcdef\"), 1, 3))"), "bcd");
  EXPECT_EQ(eval_int("try blobLen(blobSub(blobFromString(\"ab\"), 1, 5)) with -1"), -1);
  EXPECT_EQ(eval_str(
                "blobToString(blobCat(blobFromString(\"ab\"), blobFromString(\"cd\")))"),
            "abcd");
}

// blobInt/blobPutInt are TOTAL (out-of-range reads 0 / writes nothing) so
// verified ASPs — where a raise on every path fails guaranteed delivery —
// can parse binary packet fields without a try. The edge-cache ASP depends
// on this contract.
TEST(Primitives, BlobIntIsTotalLittleEndian) {
  // "ABCDEFGH" little-endian u64 = 0x4847464544434241.
  EXPECT_EQ(eval_int("blobInt(blobFromString(\"ABCDEFGH\"), 0)"),
            0x4847464544434241LL);
  // Out of range (short blob, negative offset, past-the-end) reads 0.
  EXPECT_EQ(eval_int("blobInt(blobFromString(\"short\"), 0)"), 0);
  EXPECT_EQ(eval_int("blobInt(blobFromString(\"ABCDEFGH\"), 1)"), 0);
  EXPECT_EQ(eval_int("blobInt(blobFromString(\"ABCDEFGH\"), -1)"), 0);
}

TEST(Primitives, BlobPutIntIsTotalAndRoundTrips) {
  EXPECT_EQ(eval_int("blobInt(blobPutInt(blobFromString(\"xxxxxxxx\"), 0, 7), 0)"),
            7);
  // Out-of-range writes return the blob unchanged, not a raise.
  EXPECT_EQ(eval_str("blobToString(blobPutInt(blobFromString(\"ab\"), 0, 7))"),
            "ab");
  // Patch bytes [1, 9): length and the bytes outside the window survive.
  EXPECT_EQ(eval_int("blobLen(blobPutInt(blobFromString(\"ABCDEFGHI\"), 1, 0))"),
            9);
  EXPECT_EQ(eval_int("blobByte(blobPutInt(blobFromString(\"ABCDEFGHI\"), 1, 0), 0)"),
            65);  // 'A'
  EXPECT_EQ(eval_int("blobByte(blobPutInt(blobFromString(\"ABCDEFGHI\"), 1, 0), 4)"),
            0);
  // The original blob is not mutated in place (pooled copy-on-write).
  EXPECT_EQ(eval_str("let val b : blob = blobFromString(\"AAAAAAAA\") in "
                     "(blobPutInt(b, 0, 0); blobToString(b)) end"),
            "AAAAAAAA");
}

// --- audio --------------------------------------------------------------------------

TEST(Primitives, AudioChainHalvesAtEachStage) {
  // 16-bit stereo -> mono halves; 16 -> 8 bit halves again.
  EXPECT_EQ(eval_int("blobLen(audioStereoToMono(blobFromString(\"aabbccdd\")))"), 4);
  EXPECT_EQ(eval_int("blobLen(audio16To8(audioStereoToMono("
                     "blobFromString(\"aabbccdd\"))))"),
            2);
  // And the reconstruction chain restores the size.
  EXPECT_EQ(eval_int("blobLen(audioMonoToStereo(audio8To16(audio16To8("
                     "audioStereoToMono(blobFromString(\"aabbccdd\"))))))"),
            8);
}

TEST(Primitives, AudioTranscodingIsMeaningful) {
  // A loud left / silent right pair averages to half amplitude.
  std::vector<std::uint8_t> pcm = {0x00, 0x40, 0x00, 0x00};  // L=0x4000, R=0
  auto mono = audio_stereo_to_mono16(pcm);
  ASSERT_EQ(mono.size(), 2u);
  std::int16_t s = static_cast<std::int16_t>(mono[0] | (mono[1] << 8));
  EXPECT_EQ(s, 0x2000);
  // 8-bit round trip preserves the top byte.
  auto eight = audio_16_to_8(mono);
  auto sixteen = audio_8_to_16(eight);
  std::int16_t s2 = static_cast<std::int16_t>(sixteen[0] | (sixteen[1] << 8));
  EXPECT_EQ(s2, 0x2000);
}

// --- images --------------------------------------------------------------------------

TEST(Primitives, DistillImage) {
  EXPECT_EQ(eval_int("blobLen(distillImage(blobFromString(\"12345678\"), 2))"), 4);
  EXPECT_EQ(eval_int("blobLen(distillImage(blobFromString(\"12345678\"), 8))"), 1);
  EXPECT_EQ(eval_str("blobToString(distillImage(blobFromString(\"abcdef\"), 1))"),
            "abcdef");
  EXPECT_EQ(eval_int("try blobLen(distillImage(blobFromString(\"a\"), 0)) with -1"), -1);
}

// --- environment ------------------------------------------------------------------

TEST(Primitives, EnvironmentFamily) {
  NullEnv env;
  env.host = asp::net::ip("4.4.4.4");
  env.now_ms = 777;
  env.load_percent = 42;
  env.bandwidth_kbps = 100'000;
  env.arrival = 3;
  CheckedProgram p = typecheck(parse(
      "val a : host = thisHost()\nval b : int = getTime()\n"
      "val c : int = linkLoad()\nval d : int = linkBandwidth()\n"
      "val e : int = arrivalIface()"));
  Interp interp(p, env);
  EXPECT_EQ(interp.global(0).as_host().str(), "4.4.4.4");
  EXPECT_EQ(interp.global(1).as_int(), 777);
  EXPECT_EQ(interp.global(2).as_int(), 42);
  EXPECT_EQ(interp.global(3).as_int(), 100'000);
  EXPECT_EQ(interp.global(4).as_int(), 3);
}

// --- registration -----------------------------------------------------------------

TEST(Primitives, EveryOverloadHasBothEntries) {
  // The interpreter calls every primitive through its boxed entry and the
  // JIT through its typed one, a template with three operand slots.
  for (const Primitive& prim : Primitives::instance().all()) {
    EXPECT_NE(prim.fn, nullptr) << prim.name;
    EXPECT_NE(prim.typed, nullptr) << prim.name;
    EXPECT_LE(prim.params.size(), 3u) << prim.name;
  }
}

}  // namespace
}  // namespace asp::planp
