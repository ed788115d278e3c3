// The bytecode VM (interp/bytecode.hpp + interp/vm.hpp) against its
// contract: the lowering is stable (snapshot tests per opcode class) and
// execution is observationally identical to the tree-walking reference —
// bit-equal results, buffer contents, error strings, serialized execution
// profiles and cancellation behaviour. The five paper applications are
// compared on every profiled run a flow makes, the full flow engine is
// checked at jobs=1 vs jobs=3, and the bezier flow is run once more on
// profiles the tree walker seeded into its cache; the `interp:vm` fuzz oracle
// (test_fuzz_regression) extends the same check to generated programs.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "analysis/hotspot.hpp"
#include "analysis/profile_cache.hpp"
#include "ast/walk.hpp"
#include "core/psaflow.hpp"
#include "flow/context.hpp"
#include "flow/standard_flow.hpp"
#include "frontend/parser.hpp"
#include "interp/bytecode.hpp"
#include "interp/interpreter.hpp"
#include "interp/vm.hpp"
#include "meta/query.hpp"
#include "support/cancel.hpp"
#include "transform/extract.hpp"
#include "test_util.hpp"

namespace psaflow {
namespace {

using namespace psaflow::interp;
using psaflow::testing::parse_and_check;

std::string disasm(std::string_view src) {
    auto [mod, types] = parse_and_check(std::string(src));
    return bc::disassemble(bc::compile(*mod, types));
}

// ----------------------------------------------------------------------
// Lowering snapshots, one per opcode class. These pin the exact register
// assignment, charge placement and operand encoding; an intentional
// lowering change updates them alongside a fresh differential sweep.
// ----------------------------------------------------------------------

TEST(VmLowering, ArithmeticAndReturn) {
    EXPECT_EQ(disasm(R"(double axpy(double a, double x, double y) {
    return a * x + y;
}
)"),
              "func axpy(a: double, x: double, y: double) ret=double "
              "sregs=5 bregs=0\n"
              "   0: MulD s3, s0, s1\n"
              "   1: AddD s4, s3, s2\n"
              "   2: Ret s4\n"
              "   3: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, IntegerDivisionAndModulo) {
    EXPECT_EQ(disasm(R"(int quot(int a, int b) {
    return a / b - a % b;
}
)"),
              "func quot(a: int, b: int) ret=int sregs=5 bregs=0\n"
              "   0: DivI s2, s0, s1\n"
              "   1: ModI s3, s0, s1\n"
              "   2: SubI s4, s2, s3\n"
              "   3: Ret s4\n"
              "   4: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, ForLoopWithCompoundAssign) {
    // Literals get registers loaded once on entry (s3, s4). LoopEnter/
    // LoopExit bracket the loop, LoopTest guards the first trip and
    // LoopNext is the whole back edge: the limit `n` is invariant and the
    // positive literal step needs no StepCheck. The induction variable
    // advances through a snapshot register (s5 here) so body writes to `i`
    // are overwritten exactly like the tree walker.
    EXPECT_EQ(disasm(R"(int sum_to(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += i;
    }
    return s;
}
)"),
              "func sum_to(n: int) ret=int sregs=6 bregs=0\n"
              "   0: LoadI s3, 0\n"
              "   1: LoadI s4, 1\n"
              "   2: Mov s1, s3\n"
              "   3: ChargeAssign\n"
              "   4: LoopEnter L0\n"
              "   5: Mov s2, s3\n"
              "   6: Mov s5, s2\n"
              "   7: LoopTest s5, s0, @11\n"
              "   8: ChargeAssign\n"
              "   9: CAddI s1, s1, s2\n"
              "  10: LoopNext s2, s5, s4, s0, @8\n"
              "  11: LoopExit\n"
              "  12: Ret s1\n"
              "  13: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, ForLoopWithComputedLimitAndVariableStep) {
    // A limit with code of its own is re-evaluated on every trip, so the
    // back edge is LoopInc, the limit's code, then LoopBack. A variable
    // step keeps its StepCheck.
    EXPECT_EQ(disasm(R"(int tri(int n, int s) {
    int acc = 0;
    for (int i = 0; i < n + 1; i += s) {
        acc += i;
    }
    return acc;
}
)"),
              "func tri(n: int, s: int) ret=int sregs=8 bregs=0\n"
              "   0: LoadI s4, 0\n"
              "   1: LoadI s5, 1\n"
              "   2: Mov s2, s4\n"
              "   3: ChargeAssign\n"
              "   4: LoopEnter L0\n"
              "   5: Mov s3, s4\n"
              "   6: Mov s6, s3\n"
              "   7: AddI s7, s0, s5\n"
              "   8: LoopTest s6, s7, @15\n"
              "   9: ChargeAssign\n"
              "  10: CAddI s2, s2, s3\n"
              "  11: StepCheck s1, \"3:5: for-loop step must be positive\"\n"
              "  12: LoopInc s3, s6, s1\n"
              "  13: AddI s7, s0, s5\n"
              "  14: LoopBack s6, s7, @9\n"
              "  15: LoopExit\n"
              "  16: Ret s2\n"
              "  17: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, ShortCircuitAndOr) {
    // `&&`/`||` charge one comparison before the left operand and skip the
    // right one entirely when short-circuiting, mirroring the tree. The
    // move at @9 is a jump target, so it is not folded into NotB.
    EXPECT_EQ(disasm(R"(bool gate(bool p, bool q, double x) {
    return p && (x < 1.0 || !q);
}
)"),
              "func gate(p: bool, q: bool, x: double) ret=bool "
              "sregs=8 bregs=0\n"
              "   0: LoadD s3, 1\n"
              "   1: ChargeCmp\n"
              "   2: LoadB s4, false\n"
              "   3: JmpF s0, @10\n"
              "   4: ChargeCmp\n"
              "   5: LtD s6, s2, s3\n"
              "   6: LoadB s5, true\n"
              "   7: JmpT s6, @9\n"
              "   8: NotB s5, s1\n"
              "   9: Mov s4, s5\n"
              "  10: Ret s4\n"
              "  11: Trap \"value is not bool\"\n");
}

TEST(VmLowering, WhileAndIfElse) {
    EXPECT_EQ(disasm(R"(int halve(int n) {
    int steps = 0;
    while (n > 1) {
        if (n % 2 == 0) {
            n = n / 2;
        } else {
            n = n - 1;
        }
        steps = steps + 1;
    }
    return steps;
}
)"),
              "func halve(n: int) ret=int sregs=7 bregs=0\n"
              "   0: LoadI s2, 0\n"
              "   1: LoadI s3, 1\n"
              "   2: LoadI s4, 2\n"
              "   3: Mov s1, s2\n"
              "   4: ChargeAssign\n"
              "   5: ChargeCmp\n"
              "   6: GtI s5, s0, s3\n"
              "   7: JmpF s5, @20\n"
              "   8: ChargeCmp\n"
              "   9: ModI s5, s0, s4\n"
              "  10: EqI s6, s5, s2\n"
              "  11: JmpF s6, @15\n"
              "  12: ChargeAssign\n"
              "  13: DivI s0, s0, s4\n"
              "  14: Jmp @17\n"
              "  15: ChargeAssign\n"
              "  16: SubI s0, s0, s3\n"
              "  17: ChargeAssign\n"
              "  18: AddI s1, s1, s3\n"
              "  19: Jmp @5\n"
              "  20: Ret s1\n"
              "  21: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, FloatRoundingAndConversions) {
    // Binary float ops compute in float (MulF); float compound assignment
    // computes in double and rounds once (CDivF) — two distinct rounding
    // behaviours the tree walker has, preserved verbatim. The declaration's
    // charge and the next assignment's merge into one ChargeRun.
    EXPECT_EQ(disasm(R"(float mix(float a, int k, double d) {
    float t = a * 0.5f;
    t /= d + k;
    return t;
}
)"),
              "func mix(a: float, k: int, d: double) ret=float "
              "sregs=7 bregs=0\n"
              "   0: LoadD s4, 0.5\n"
              "   1: MulF s3, s0, s4\n"
              "   2: ChargeRun 2\n"
              "   3: I2D s6, s1\n"
              "   4: AddD s5, s2, s6\n"
              "   5: CDivF s3, s3, s5\n"
              "   6: Ret s3\n"
              "   7: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, LocalArraysAndElementOps) {
    EXPECT_EQ(disasm(R"(double tally(int n, double* buf) {
    double acc[4];
    for (int i = 0; i < 4; i++) {
        acc[i] = 0.0;
    }
    for (int i = 0; i < n; i++) {
        acc[i % 4] += buf[i % n];
    }
    return acc[0] + acc[1] + acc[2] + acc[3];
}
)"),
              "func tally(n: int, buf: double*) ret=double sregs=15 bregs=2\n"
              "   0: LoadI s2, 4\n"
              "   1: LoadI s3, 0\n"
              "   2: LoadI s4, 1\n"
              "   3: LoadD s5, 0\n"
              "   4: LoadI s6, 2\n"
              "   5: LoadI s7, 3\n"
              "   6: NewBuf b1, s2, double 'acc'\n"
              "   7: ChargeAssign\n"
              "   8: LoopEnter L0\n"
              "   9: Mov s1, s3\n"
              "  10: Mov s8, s1\n"
              "  11: LoopTest s8, s2, @15\n"
              "  12: ChargeAssign\n"
              "  13: StoreElem b1[s1], s5\n"
              "  14: LoopNext s1, s8, s4, s2, @12\n"
              "  15: LoopExit\n"
              "  16: LoopEnter L1\n"
              "  17: Mov s1, s3\n"
              "  18: Mov s8, s1\n"
              "  19: LoopTest s8, s0, @28\n"
              "  20: ChargeAssign\n"
              "  21: ModI s9, s1, s0\n"
              "  22: LoadElemD s10, b0[s9]\n"
              "  23: ModI s11, s1, s2\n"
              "  24: LoadElemD s12, b1[s11]\n"
              "  25: CAddD s12, s12, s10\n"
              "  26: StoreElem b1[s11], s12\n"
              "  27: LoopNext s1, s8, s4, s0, @20\n"
              "  28: LoopExit\n"
              "  29: LoadElemD s8, b1[s3]\n"
              "  30: LoadElemD s9, b1[s4]\n"
              "  31: AddD s10, s8, s9\n"
              "  32: LoadElemD s11, b1[s6]\n"
              "  33: AddD s12, s10, s11\n"
              "  34: LoadElemD s13, b1[s7]\n"
              "  35: AddD s14, s12, s13\n"
              "  36: Ret s14\n"
              "  37: Trap \"value is not numeric\"\n");
}

TEST(VmLowering, BuiltinAndUserCalls) {
    EXPECT_EQ(disasm(R"(double norm(double x, double y) {
    return sqrt(x * x + y * y);
}

double run(int n, double* b) {
    return norm(b[0], n) + fmin(b[1], 2.0);
}
)"),
              "func norm(x: double, y: double) ret=double sregs=6 bregs=0\n"
              "   0: MulD s2, s0, s0\n"
              "   1: MulD s3, s1, s1\n"
              "   2: AddD s4, s2, s3\n"
              "   3: CallBuiltin s5, sqrt(s4)\n"
              "   4: Ret s5\n"
              "   5: Trap \"value is not numeric\"\n"
              "\n"
              "func run(n: int, b: double*) ret=double sregs=10 bregs=1\n"
              "   0: LoadI s1, 0\n"
              "   1: LoadI s2, 1\n"
              "   2: LoadD s3, 2\n"
              "   3: LoadElemD s4, b0[s1]\n"
              "   4: I2D s5, s0\n"
              "   5: CallUser s6, norm(s4, s5)\n"
              "   6: LoadElemD s7, b0[s2]\n"
              "   7: CallBuiltin s8, fmin(s7, s3)\n"
              "   8: AddD s9, s6, s8\n"
              "   9: Ret s9\n"
              "  10: Trap \"value is not numeric\"\n");
}

// ----------------------------------------------------------------------
// Dispatch edge cases: the VM and the tree walker must agree on every
// result, every error and the exact error wording.
// ----------------------------------------------------------------------

struct EngineOutcome {
    bool threw = false;
    std::string error;
    Value result = Value::void_value();
};

EngineOutcome run_engine(std::string_view src, const std::string& fn,
                         const std::vector<Arg>& args, Engine engine,
                         InterpOptions options = {}) {
    auto [mod, types] = parse_and_check(std::string(src));
    options.engine = engine;
    EngineOutcome out;
    try {
        out.result = run_function(*mod, types, fn, args, options).result;
    } catch (const InterpError& e) {
        out.threw = true;
        out.error = e.what();
    }
    return out;
}

/// Both engines produce this exact error.
void expect_both_throw(std::string_view src, const std::string& fn,
                       const std::vector<Arg>& args,
                       const std::string& message) {
    for (const Engine engine : {Engine::Tree, Engine::Vm}) {
        const auto out = run_engine(src, fn, args, engine);
        EXPECT_TRUE(out.threw) << to_string(engine) << ": no error";
        EXPECT_EQ(out.error, message) << to_string(engine);
    }
}

/// Both engines produce this exact (bit-compared) result.
void expect_both_return(std::string_view src, const std::string& fn,
                        const std::vector<Arg>& args, const Value& want) {
    for (const Engine engine : {Engine::Tree, Engine::Vm}) {
        const auto out = run_engine(src, fn, args, engine);
        ASSERT_FALSE(out.threw) << to_string(engine) << ": " << out.error;
        ASSERT_EQ(out.result.type(), want.type()) << to_string(engine);
        if (want.type() == ast::Type::Double ||
            want.type() == ast::Type::Float) {
            double a = out.result.as_double();
            double b = want.as_double();
            EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
                << to_string(engine) << ": " << a << " != " << b;
        } else if (want.type() == ast::Type::Int) {
            EXPECT_EQ(out.result.as_int(), want.as_int())
                << to_string(engine);
        } else if (want.type() == ast::Type::Bool) {
            EXPECT_EQ(out.result.as_bool(), want.as_bool())
                << to_string(engine);
        }
    }
}

TEST(VmDispatch, DivisionByZero) {
    expect_both_throw("int f(int a) { return a / 0; }", "f",
                      {Value::of_int(7)}, "integer division by zero");
    expect_both_throw("int f(int a) { return a % 0; }", "f",
                      {Value::of_int(7)}, "integer modulo by zero");
}

TEST(VmDispatch, OutOfBoundsIndex) {
    const char* src = R"(double f(int i) {
    double b[4];
    return b[i];
}
)";
    expect_both_throw(src, "f", {Value::of_int(9)},
                      "buffer 'b' index 9 out of bounds [0, 4)");
    expect_both_throw(src, "f", {Value::of_int(-1)},
                      "buffer 'b' index -1 out of bounds [0, 4)");
}

TEST(VmDispatch, NegativeArraySize) {
    expect_both_throw(R"(double f(int n) {
    double b[n];
    return 0.0;
}
)",
                      "f", {Value::of_int(-3)},
                      "negative array size for 'b'");
}

TEST(VmDispatch, NonPositiveLoopStep) {
    expect_both_throw(R"(int f(int s) {
    int acc = 0;
    for (int i = 0; i < 10; i += s) {
        acc = acc + 1;
    }
    return acc;
}
)",
                      "f", {Value::of_int(0)},
                      "3:5: for-loop step must be positive");
}

TEST(VmDispatch, MaxStepsAbort) {
    InterpOptions options;
    options.max_steps = 1000;
    for (const Engine engine : {Engine::Tree, Engine::Vm}) {
        const auto out = run_engine(R"(int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc + i;
    }
    return acc;
}
)",
                                    "f", {Value::of_int(1000000)}, engine,
                                    options);
        EXPECT_TRUE(out.threw) << to_string(engine);
        EXPECT_EQ(out.error,
                  "execution exceeded max_steps (runaway loop?)")
            << to_string(engine);
    }
}

TEST(VmDispatch, EmptyAndZeroTripLoops) {
    expect_both_return(R"(int f(int n) {
    int acc = 7;
    for (int i = 0; i < 0; i++) {
        acc = 0;
    }
    for (int i = n; i < n; i++) {
        acc = 0;
    }
    for (int i = 0; i < n; i++) {
    }
    return acc;
}
)",
                       "f", {Value::of_int(5)}, Value::of_int(7));
}

TEST(VmDispatch, DeepNestingAndTruncation) {
    expect_both_return(R"(int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 3; j++) {
            for (int k = 0; k < 2; k++) {
                for (int l = 0; l < 2; l++) {
                    acc += (i * 7 - n) / (j + 2) - (i - j) % (k + l + 1);
                }
            }
        }
    }
    return acc;
}
)",
                       "f", {Value::of_int(9)}, [] {
                           long long acc = 0;
                           const long long n = 9;
                           for (long long i = 0; i < n; ++i)
                               for (long long j = 0; j < 3; ++j)
                                   for (long long k = 0; k < 2; ++k)
                                       for (long long l = 0; l < 2; ++l)
                                           acc += (i * 7 - n) / (j + 2) -
                                                  (i - j) % (k + l + 1);
                           return Value::of_int(acc);
                       }());
}

TEST(VmDispatch, FloatCompoundRoundsOnceThroughDouble) {
    // Binary float arithmetic rounds each op; compound float assignment
    // computes in double and rounds once. Verify the VM reproduces the
    // tree walker bit-for-bit on a value where the two differ from a
    // naive all-double evaluation.
    const char* src = R"(float f(float a, float b) {
    float t = a;
    t *= b;
    return t + a * b;
}
)";
    const auto tree = run_engine(src, "f",
                                 {Value::of_float(1.1), Value::of_float(3.7)},
                                 Engine::Tree);
    ASSERT_FALSE(tree.threw) << tree.error;
    expect_both_return(src, "f",
                       {Value::of_float(1.1), Value::of_float(3.7)},
                       tree.result);
}

// ----------------------------------------------------------------------
// Runs that stop part-way (a throw or a cancellation) must stop at the
// same step with the same partial profile on both engines.
// ----------------------------------------------------------------------

struct PartialRun {
    std::string error; ///< empty when the call returned
    std::uint64_t result_bits = 0;
    std::string profile_payload;
};

/// Call `fn` on one engine with profiling on, catching any psaflow error,
/// and serialize whatever profile the run left behind.
PartialRun run_partial(ast::Module& mod, const sema::TypeInfo& types,
                       const std::string& fn, const std::vector<Arg>& args,
                       Engine engine, InterpOptions options = {}) {
    options.profile = true;
    std::vector<ast::Node::Id> loop_order;
    for (const auto* loop : meta::for_loops(mod))
        loop_order.push_back(loop->id);
    PartialRun out;
    const auto run = [&](auto& machine) {
        try {
            const Value v = machine.call(fn, args);
            if (v.type() == ast::Type::Int) {
                out.result_bits = static_cast<std::uint64_t>(v.as_int());
            } else if (v.type() != ast::Type::Void) {
                const double d = v.as_double();
                std::memcpy(&out.result_bits, &d, sizeof d);
            }
        } catch (const Error& e) {
            out.error = e.what();
        }
        out.profile_payload =
            analysis::serialize_profile_payload(machine.profile(), loop_order);
    };
    if (engine == Engine::Tree) {
        Interpreter machine(mod, types, options);
        run(machine);
    } else {
        Vm machine(mod, types, options);
        run(machine);
    }
    return out;
}

void expect_same_partial_run(const PartialRun& tree, const PartialRun& vm) {
    EXPECT_EQ(tree.error, vm.error);
    EXPECT_EQ(tree.result_bits, vm.result_bits);
    EXPECT_EQ(tree.profile_payload, vm.profile_payload);
}

TEST(VmBuiltins, EveryBuiltinMatchesTreeWalkerBitForBit) {
    // In-domain, boundary, special and out-of-domain arguments for every
    // catalog entry; binary builtins take each value against a few
    // partners. Float-overflowing and denormal doubles exercise the *f
    // variants' narrowing.
    const double nan = std::nan("");
    const double inf = HUGE_VAL;
    const std::vector<double> xs = {0.5,   2.0,    1e-3,  -0.75,    3.25,
                                    -2.5,  0.0,    -0.0,  1.0,      -1.0,
                                    1e308, 1e39,   -1e39, 4.9e-324, 1e-45,
                                    inf,   -inf,   nan};
    const std::vector<double> ys = {2.0, -0.5, 0.0, nan};
    for (const sema::BuiltinInfo& b : sema::all_builtins()) {
        const std::string name(b.name);
        SCOPED_TRACE(name);
        const std::string call =
            b.arity == 1 ? name + "(x)" : name + "(x, y)";
        const std::string src = "double f(double x, double y) {\n"
                                "    double r = " + call + ";\n"
                                "    return r;\n"
                                "}\n";
        auto [mod, types] = parse_and_check(src);
        for (const double x : xs) {
            for (const double y : b.arity == 1 ? std::vector<double>{0.0}
                                               : ys) {
                SCOPED_TRACE(std::to_string(x) + ", " + std::to_string(y));
                const std::vector<Arg> args = {Value::of_double(x),
                                               Value::of_double(y)};
                expect_same_partial_run(
                    run_partial(*mod, types, "f", args, Engine::Tree),
                    run_partial(*mod, types, "f", args, Engine::Vm));
            }
        }
    }
}

TEST(VmBuiltins, DomainErrorsMatchOnBothEngines) {
    const struct {
        const char* callee;
        double arg;
        const char* message;
    } cases[] = {
        {"sqrt", -1.0, "sqrt of negative value"},
        {"sqrtf", -1.0, "sqrtf of negative value"},
        {"log", 0.0, "log of non-positive value"},
        {"logf", 0.0, "logf of non-positive value"},
        {"sqrt", std::nan(""), "sqrt of negative value"},
        {"logf", std::nan(""), "logf of non-positive value"},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.callee);
        auto [mod, types] = parse_and_check(
            "double f(double x) { return " + std::string(c.callee) +
            "(x); }");
        const std::vector<Arg> args = {Value::of_double(c.arg)};
        const auto tree = run_partial(*mod, types, "f", args, Engine::Tree);
        const auto vm = run_partial(*mod, types, "f", args, Engine::Vm);
        EXPECT_EQ(tree.error, c.message);
        expect_same_partial_run(tree, vm);
    }
    // A tiny negative double narrows to -0.0f, inside sqrtf's domain.
    auto [mod, types] = parse_and_check("double f(double x) { return "
                                        "sqrtf(x) + sqrt(-x); }");
    const auto vm = run_partial(*mod, types, "f", {Value::of_double(-1e-60)},
                                Engine::Vm);
    EXPECT_EQ(vm.error, "");
    expect_same_partial_run(
        run_partial(*mod, types, "f", {Value::of_double(-1e-60)},
                    Engine::Tree),
        vm);
}

/// Charge runs, invariant-limit and computed-limit loops, a variable step,
/// a while loop and a call: every superinstruction of the lowering.
constexpr const char* kFusedProgram = R"(double g(double v) {
    double w = v * 0.5;
    int k = 1;
    k = k + 1;
    return w + k;
}

double f(int n, int s, double* b) {
    double acc = 0.0;
    int m = n;
    for (int i = 0; i < n; i = i + 1) {
        double t = b[i];
        double u = t * 2.0;
        acc += u;
        for (int j = 0; j < i + 1; j += s) {
            acc += g(b[j]);
        }
    }
    while (m > 0) {
        m = m - 1;
        acc = acc - 1.0;
    }
    return acc;
}
)";

std::vector<Arg> fused_args() {
    auto buf = std::make_shared<Buffer>(ast::Type::Double, 6, "b");
    for (int i = 0; i < 6; ++i) buf->store(i, 0.25 * i + 1.0);
    return {Value::of_int(6), Value::of_int(2), buf};
}

TEST(VmMaxSteps, EveryCutOffMatchesTreeWalker) {
    // A max_steps at every step of the run: inside ChargeRuns, on LoopNext
    // and LoopBack back edges, inside calls. Each must throw the same error
    // with a bit-identical partial profile.
    auto [mod, types] = parse_and_check(kFusedProgram);
    const std::string listing = bc::disassemble(bc::compile(*mod, types));
    for (const char* op : {"ChargeRun", "LoopNext", "LoopInc", "LoopBack"})
        EXPECT_NE(listing.find(op), std::string::npos) << op;

    InterpOptions unlimited;
    unlimited.focus_function = "f";
    const auto full =
        run_partial(*mod, types, "f", fused_args(), Engine::Tree, unlimited);
    ASSERT_EQ(full.error, "");

    int cut_offs = 0;
    for (long long max_steps = 0;; ++max_steps) {
        InterpOptions options = unlimited;
        options.max_steps = max_steps;
        const auto tree =
            run_partial(*mod, types, "f", fused_args(), Engine::Tree, options);
        const auto vm =
            run_partial(*mod, types, "f", fused_args(), Engine::Vm, options);
        SCOPED_TRACE("max_steps " + std::to_string(max_steps));
        expect_same_partial_run(tree, vm);
        if (tree.error.empty()) break;
        EXPECT_EQ(tree.error, "execution exceeded max_steps (runaway loop?)");
        ++cut_offs;
    }
    EXPECT_GT(cut_offs, 200);
}

// ----------------------------------------------------------------------
// Cooperative cancellation: the VM polls the ambient CancelToken on the
// same step cadence as the tree walker.
// ----------------------------------------------------------------------

TEST(VmCancellation, PollFiresAtTheSameStepAsTheTreeWalker) {
    // The first poll is due at step 0x2000. With max_steps exactly there, a
    // cancelled run must end in CancelledError, never in the max_steps
    // error of step 0x2001: no fused charge may step over the poll. The
    // main loop's trip is 8 steps, half of them one ChargeRun; the warm-up
    // loop (3 steps a trip) shifts where step 0x2000 falls, over every
    // position of the trip. Both engines stop with the same profile.
    auto [mod, types] = parse_and_check(R"(int spin(int a, int n) {
    for (int k = 0; k < a; k = k + 1) {
        int w = 0;
    }
    bool p = true;
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
        bool q = p;
        q = (q && p) && p;
        acc += i;
    }
    return acc;
}
)");
    ASSERT_NE(bc::disassemble(bc::compile(*mod, types)).find("ChargeRun 4"),
              std::string::npos);
    InterpOptions options;
    options.max_steps = 0x2000;
    CancelToken token;
    token.cancel();
    CancelScope scope(&token);
    for (int a = 0; a < 8; ++a) {
        SCOPED_TRACE("warm-up trips " + std::to_string(a));
        const std::vector<Arg> args = {Value::of_int(a),
                                       Value::of_int(100000)};
        const auto tree =
            run_partial(*mod, types, "spin", args, Engine::Tree, options);
        const auto vm =
            run_partial(*mod, types, "spin", args, Engine::Vm, options);
        EXPECT_EQ(tree.error, "request cancelled");
        expect_same_partial_run(tree, vm);
    }
}

TEST(VmCancellation, CancelledTokenUnwindsMidLoop) {
    const char* src = R"(int spin(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc + i;
    }
    return acc;
}
)";
    auto [mod, types] = parse_and_check(src);
    for (const Engine engine : {Engine::Tree, Engine::Vm}) {
        CancelToken token;
        token.cancel();
        CancelScope scope(&token);
        InterpOptions options;
        options.engine = engine;
        // ~400k steps: far past the first poll point, nowhere near done.
        EXPECT_THROW((void)run_function(*mod, types, "spin",
                                        {Value::of_int(100000)}, options),
                     CancelledError)
            << to_string(engine);
    }
}

TEST(VmCancellation, UncancelledTokenRunsToCompletion) {
    const char* src = R"(int spin(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc + i;
    }
    return acc;
}
)";
    auto [mod, types] = parse_and_check(src);
    CancelToken token;
    CancelScope scope(&token);
    InterpOptions options;
    options.engine = Engine::Vm;
    EXPECT_EQ(run_function(*mod, types, "spin", {Value::of_int(100000)},
                           options)
                  .result.as_int(),
              4999950000LL);
}

// ----------------------------------------------------------------------
// Profile equivalence on the five paper applications: identical results,
// buffers and serialized execution profiles (totals, per-loop stats,
// focus summaries — everything the design flow consumes).
// ----------------------------------------------------------------------

/// Name of the function containing the first for-loop (the flow's default
/// profiling focus for these apps).
std::string first_loop_function(ast::Module& module) {
    for (const auto& fn : module.functions) {
        bool has_loop = false;
        ast::walk(static_cast<ast::Node&>(*fn), [&](ast::Node& n) {
            if (n.kind() == ast::NodeKind::For) has_loop = true;
            return true;
        });
        if (has_loop) return fn->name;
    }
    return module.functions.front()->name;
}

struct AppCapture {
    std::string profile_payload;
    std::vector<std::vector<double>> buffers;
    long long result_bits = 0;
    bool has_result = false;
};

/// One profiled run of the app's workload at `scale` with `focus` as the
/// summarised function, as the flow's ProfileCache::run would make it.
AppCapture run_app(ast::Module& mod, const sema::TypeInfo& types,
                   const apps::Application& app, const std::string& focus,
                   double scale, Engine engine) {
    std::vector<ast::Node::Id> loop_order;
    for (const auto* loop : meta::for_loops(mod))
        loop_order.push_back(loop->id);

    InterpOptions options;
    options.engine = engine;
    options.profile = true;
    options.focus_function = focus;

    const auto args = app.workload.make_args(scale);
    const auto run = run_function(mod, types, app.workload.entry, args,
                                  options);

    AppCapture cap;
    cap.profile_payload =
        analysis::serialize_profile_payload(run.profile, loop_order);
    for (const auto& arg : args)
        if (const auto* buf = std::get_if<BufferPtr>(&arg))
            cap.buffers.push_back((*buf)->raw());
    if (run.result.type() == ast::Type::Double ||
        run.result.type() == ast::Type::Float) {
        double d = run.result.as_double();
        std::memcpy(&cap.result_bits, &d, sizeof d);
        cap.has_result = true;
    } else if (run.result.type() == ast::Type::Int) {
        cap.result_bits = run.result.as_int();
        cap.has_result = true;
    }
    return cap;
}

void expect_engines_agree(ast::Module& mod, const sema::TypeInfo& types,
                          const apps::Application& app,
                          const std::string& focus, double scale) {
    SCOPED_TRACE("focus " + focus + ", scale " + std::to_string(scale));
    const auto tree = run_app(mod, types, app, focus, scale, Engine::Tree);
    const auto vm = run_app(mod, types, app, focus, scale, Engine::Vm);
    EXPECT_EQ(tree.profile_payload, vm.profile_payload);
    EXPECT_EQ(tree.has_result, vm.has_result);
    EXPECT_EQ(tree.result_bits, vm.result_bits);
    ASSERT_EQ(tree.buffers.size(), vm.buffers.size());
    for (std::size_t i = 0; i < tree.buffers.size(); ++i) {
        ASSERT_EQ(tree.buffers[i].size(), vm.buffers[i].size());
        EXPECT_EQ(std::memcmp(tree.buffers[i].data(), vm.buffers[i].data(),
                              tree.buffers[i].size() * sizeof(double)),
                  0)
            << app.name << " buffer " << i << " differs";
    }
}

// A flow sees the interpreter only through ProfileCache::run, so these are
// the runs every product path makes: the hotspot profile, then
// characterize_kernel's two runs of the extracted top hotspot at the
// profiling scale and twice it.
TEST(VmApps, ProfilesMatchTreeWalkerOnAllFiveApps) {
    for (const auto* app : apps::all_applications()) {
        SCOPED_TRACE(app->name);
        auto checked = parse_and_check(app->source, app->name);
        ast::Module& mod = *checked.module;
        const double scale = app->workload.profile_scale;
        expect_engines_agree(mod, checked.types, *app,
                             first_loop_function(mod), scale);

        const auto report =
            analysis::detect_hotspots(mod, checked.types, app->workload);
        ASSERT_NE(report.top(), nullptr);
        const std::string kernel = app->name + "_kernel";
        (void)transform::extract_hotspot(mod, checked.types,
                                         *report.top()->loop, kernel);
        const sema::TypeInfo types = sema::check(mod);
        expect_engines_agree(mod, types, *app, kernel, scale);
        expect_engines_agree(mod, types, *app, kernel, 2.0 * scale);
    }
}

// ----------------------------------------------------------------------
// Flow-level byte-identity: the full design flow at jobs=1 and jobs=3
// produces identical designs, logs and predictions. The flow runs the VM;
// the per-run checks above tie it to the tree walker.
// ----------------------------------------------------------------------

std::string flow_summary(const flow::FlowResult& result) {
    std::ostringstream os;
    os.precision(17);
    os << "reference_seconds=" << result.reference_seconds << "\n";
    for (const auto& line : result.log) os << "| " << line << "\n";
    for (const auto& d : result.designs) {
        os << "design " << d.name() << " speedup=" << d.speedup
           << " loc_delta=" << d.loc_delta
           << " synthesizable=" << d.synthesizable << "\n";
        os << d.source << "\n";
        for (const auto& line : d.log) os << "| " << line << "\n";
    }
    return os.str();
}

TEST(VmFlow, DesignsAreByteIdenticalAcrossJobs) {
    std::vector<std::string> summaries;
    for (const int jobs : {1, 3}) {
        RunOptions options;
        options.jobs = jobs;
        summaries.push_back(
            flow_summary(psaflow::compile(apps::kmeans(), options)));
    }
    EXPECT_FALSE(summaries[0].empty());
    EXPECT_EQ(summaries[0], summaries[1]);
}

// The flow itself always runs the VM, but it reads every profile through
// ProfileCache::run, whose key does not name the engine. Walking the flow's
// own tasks and path selections to record each module state, then seeding
// the cache with tree-walker profiles of those states, makes the real flow
// consume only tree-walker profiles; its designs must equal the VM flow's.

/// Run `tasks` on `ctx`, then every path `next`'s strategy selects on a
/// fork, as the flow engine does, recording the state after each task.
void record_states(flow::FlowContext& ctx,
                   const std::vector<flow::TaskPtr>& tasks,
                   const flow::BranchPoint* next,
                   std::vector<flow::FlowContext>& states) {
    for (const flow::TaskPtr& task : tasks) {
        task->run(ctx);
        states.push_back(ctx.fork());
    }
    if (next == nullptr) return;
    for (const std::size_t idx : next->strategy->select(ctx, *next)) {
        const flow::FlowPath& path = next->paths.at(idx);
        flow::FlowContext forked = ctx.fork();
        record_states(forked, path.tasks, path.next.get(), states);
    }
}

/// Seed the global profile cache with tree-walker profiles of the runs a
/// task can make on `ctx`'s module: the hotspot profile before extraction,
/// characterize_kernel's two runs after.
void seed_tree_profiles(flow::FlowContext& ctx) {
    auto& cache = analysis::ProfileCache::global();
    const analysis::Workload& workload = ctx.workload();
    const double scale = workload.profile_scale;
    InterpOptions tree;
    tree.engine = Engine::Tree;
    if (!ctx.has_kernel()) {
        (void)cache.run(ctx.module(), ctx.types(), workload.entry,
                        workload.make_args(scale), tree);
        return;
    }
    tree.focus_function = ctx.spec.kernel_name;
    for (const double s : {scale, 2.0 * scale})
        (void)cache.run(ctx.module(), ctx.types(), workload.entry,
                        workload.make_args(s), tree);
}

TEST(VmFlow, SecondAppAgreesAcrossEngines) {
    const apps::Application& app = apps::bezier();
    auto& cache = analysis::ProfileCache::global();
    const bool was_enabled = cache.enabled();
    cache.set_enabled(true);
    cache.clear();
    const auto vm = flow_summary(psaflow::compile(app, {}));

    flow::FlowContext ctx(app.name,
                          frontend::parse_module(app.source, app.name),
                          app.workload);
    ctx.allow_single_precision = app.allow_single_precision;
    std::vector<flow::FlowContext> states;
    states.push_back(ctx.fork());
    const flow::DesignFlow design_flow =
        flow::standard_flow(RunOptions{}.mode);
    record_states(ctx, design_flow.prologue, design_flow.branch.get(),
                  states);

    cache.clear();
    for (flow::FlowContext& state : states) seed_tree_profiles(state);
    const std::uint64_t tree_runs = cache.stats().misses;
    const auto tree = flow_summary(psaflow::compile(app, {}));
    const std::uint64_t misses = cache.stats().misses;
    cache.clear();
    cache.set_enabled(was_enabled);

    EXPECT_GT(tree_runs, 0u);
    EXPECT_EQ(misses, tree_runs)
        << "a profile was computed by the VM instead of the tree walker";
    EXPECT_FALSE(vm.empty());
    EXPECT_EQ(tree, vm);
}

} // namespace
} // namespace psaflow
