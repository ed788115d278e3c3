// Bytecode for the profiling interpreter.
//
// The tree walker in interpreter.cpp pays virtual dispatch, a per-variable
// hash lookup and a Value box for every node it touches; on a cold compile
// that constant factor dominates the whole flow (BENCH_5: 26-79x cold vs
// warm). This compiler lowers a checked HLC module once into a compact
// register-based instruction stream whose dispatch loop (vm.hpp) performs
// the *same sequence of charges in the same order* as the tree walker —
// profiling hooks (loop trip counters, work estimates, memory footprints,
// aliasing probes) are explicit instructions, so profiles, results and
// error strings come out bit-identical while the walking overhead is gone.
//
// Charge-free work is kept off the per-instruction path: literals live in
// registers loaded once on function entry, a statement's result is
// computed straight into its variable (no trailing Mov), adjacent unit
// charges merge into one ChargeRun, and a for loop's back edge (step, head
// snapshot, limit test, trip count) is one LoopNext when its limit is
// invariant. None of this moves a charge relative to another.
//
// Lowering invariants relied on throughout (all guaranteed by sema::check):
//   - one declared type per name per function, so every scalar gets a fixed
//     register and every array a fixed buffer slot;
//   - for-loop init/limit/step and subscripts are statically Int;
//   - conditions and logical operands are strictly Bool;
//   - call arity and argument kinds match the callee's parameters.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/nodes.hpp"
#include "sema/builtins.hpp"
#include "sema/type_check.hpp"

namespace psaflow::interp::bc {

/// Instruction set. Naming: I/D/F suffixes are the *static* operand types
/// (Int, Double, Float); Float values live in double registers, rounded to
/// float precision exactly where the tree walker rounds (Value::of_float).
/// "charge-free" ops mirror tree-walker work that never called charge().
enum class Op : std::uint8_t {
    // ---- charge-free data movement ----
    LoadI,  ///< S[a].i = int_pool[b]
    LoadD,  ///< S[a].d = real_pool[b]
    LoadB,  ///< S[a].b = (b != 0)
    Mov,    ///< S[a] = S[b] (raw copy)
    I2D,    ///< S[a].d = double(S[b].i)
    D2I,    ///< S[a].i = (long long)S[b].d   (truncate toward zero)
    D2F,    ///< S[a].d = double(float(S[b].d))
    I2F,    ///< S[a].d = double(float(double(S[b].i)))
    // ---- charge-free control flow ----
    Jmp,  ///< pc = a
    JmpF, ///< if (!S[a].b) pc = b
    JmpT, ///< if (S[a].b) pc = b
    // ---- standalone charges (tree walker charges before evaluating) ----
    ChargeCmp,    ///< charge(kCmpCost): If/While heads, And/Or
    ChargeAssign, ///< charge(kAssignCost): Assign and VarDecl statements
    ChargeRun,    ///< a adjacent ChargeCmp/ChargeAssign (one unit each)
    // ---- int arithmetic (charge kIntOpCost) ----
    AddI, ///< charge(1); S[a].i = S[b].i + S[c].i
    SubI,
    MulI,
    DivI, ///< charge(1); throws on S[c].i == 0
    ModI, ///< charge(1); throws on S[c].i == 0
    NegI, ///< charge(1); S[a].i = -S[b].i
    // ---- double arithmetic (charge w,w with w = Div ? 4 : 1) ----
    AddD,
    SubD,
    MulD,
    DivD,
    NegD,
    // ---- float arithmetic: compute in float, store rounded ----
    AddF, ///< charge(1,1); S[a].d = double(float(S[b].d) + float(S[c].d))
    SubF,
    MulF,
    DivF, ///< charge(4,4)
    NegF, ///< charge(1,1); S[a].d = double(float(-S[b].d))
    // ---- compound-assign arithmetic (the tree walker's `combined`:
    //      Float targets compute in double, then round once) ----
    CAddI, ///< charge(1,0); S[a].i = S[b].i + S[c].i
    CSubI,
    CMulI,
    CDivI, ///< charge(4,0); throws on S[c].i == 0
    CAddD, ///< charge(1,1)
    CSubD,
    CMulD,
    CDivD, ///< charge(4,4)
    CAddF, ///< charge(1,1); S[a].d = double(float(S[b].d + S[c].d))
    CSubF,
    CMulF,
    CDivF, ///< charge(4,4)
    // ---- comparisons (charge kCmpCost) ----
    LtI, ///< charge(1); S[a].b = S[b].i < S[c].i
    LeI,
    GtI,
    GeI,
    EqI,
    NeI,
    LtD, ///< charge(1); S[a].b = S[b].d < S[c].d
    LeD,
    GtD,
    GeD,
    EqD,
    NeD,
    NotB, ///< charge(1); S[a].b = !S[b].b
    // ---- for loops: `snap` is the head snapshot of the induction
    //      variable, and "trip" means: profiling ++trips of the innermost
    //      active loop, then charge(kLoopIterCost) ----
    LoopEnter, ///< profiling: ++entries of loop_pool[a], push active loop
    LoopTest,  ///< charge(kCmpCost); if (S[a].i >= S[b].i) pc = c; else trip
    LoopNext,  ///< back edge with an invariant limit, operands loop_ctl[a]:
               ///< S[var].i = S[snap].i + S[step].i; S[snap] = S[var];
               ///< charge(kCmpCost); if (S[snap].i < S[limit].i) trip and
               ///< pc = body
    LoopInc,   ///< S[a].i = S[b].i + S[c].i; S[b] = S[a] (var, snap, step)
    LoopBack,  ///< charge(kCmpCost); if (S[a].i < S[b].i) trip and pc = c
    LoopExit,  ///< profiling: pop active loop
    StepCheck, ///< if (S[a].i <= 0) throw InterpError(name_pool[b])
    // ---- buffers ----
    NewBuf,    ///< B[a] = fresh Buffer(buf_pool[c], size S[b].i)
    LoadElemI, ///< note_access(read); S[a].i = (long long)B[b]->load(S[c].i)
    LoadElemF, ///< note_access(read); S[a].d = round_f(B[b]->load(S[c].i))
    LoadElemD, ///< note_access(read); S[a].d = B[b]->load(S[c].i)
    StoreElem, ///< B[a]->store(S[b].i, S[c].d); note_access(write)
    // ---- calls and termination ----
    CallBuiltin, ///< S[a] = builtin_pool[b](args at arg_pool[c..])
    CallUser,    ///< call functions[b] with args at arg_pool[c..], result -> a
    Ret,         ///< return S[a] (already converted to the return type)
    RetVoid,     ///< return from a void function
    Trap,        ///< throw InterpError(name_pool[a])
};

[[nodiscard]] const char* to_string(Op op);

/// One instruction. Operand meaning is per-op (see Op); `a` is usually the
/// destination scalar register, `b`/`c` sources or pool indices.
struct Insn {
    Op op;
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::int32_t c = 0;
};

/// Operands of one LoopNext, more than an Insn holds. All are scalar
/// registers except `body`, the pc the back edge jumps to.
struct LoopCtl {
    std::int32_t var = 0;
    std::int32_t snap = 0;
    std::int32_t step = 0;
    std::int32_t limit = 0;
    std::int32_t body = 0;
};

/// Element type and declared name of a local array (NewBuf operand).
struct BufDecl {
    ast::Type elem = ast::Type::Double;
    std::string name;
};

/// Compile-time view of one parameter, in declaration order. Scalar params
/// bind to scalar registers 0..n in scalar-param order; pointer params bind
/// to buffer slots 0..m in pointer-param order.
struct ParamSpec {
    bool is_pointer = false;
    ast::Type elem = ast::Type::Double;
    std::string name;
};

struct CompiledFunction {
    std::string name;
    ast::Type ret = ast::Type::Void;
    std::vector<ParamSpec> params;
    std::uint32_t n_sregs = 0; ///< scalar frame size (named vars + temps)
    std::uint32_t n_bregs = 0; ///< buffer frame size
    bool is_focus = false;     ///< profile focus function (baked at compile)
    std::vector<Insn> code;
};

/// A whole lowered module. Pools are shared across functions; the loop pool
/// maps compact loop indices back to AST node ids so profiles stay keyed
/// exactly like the tree walker's.
struct CompiledModule {
    std::vector<CompiledFunction> functions;
    std::unordered_map<std::string, std::uint32_t> fn_index;
    std::vector<long long> int_pool;
    std::vector<double> real_pool;
    std::vector<std::string> name_pool; ///< pre-composed error messages
    std::vector<const sema::BuiltinInfo*> builtin_pool;
    std::vector<ast::Node::Id> loop_pool; ///< For node ids, compile order
    std::vector<LoopCtl> loop_ctl;        ///< LoopNext operands
    std::vector<BufDecl> buf_pool;
    std::vector<std::int32_t> arg_pool; ///< flattened call argument registers

    [[nodiscard]] const CompiledFunction* find(const std::string& name) const {
        auto it = fn_index.find(name);
        return it == fn_index.end() ? nullptr : &functions[it->second];
    }
};

/// Lower every function of a checked module. `focus_function` is baked into
/// the CompiledFunction::is_focus flags (compilation is O(AST) and cheap
/// next to any profiled run, so the VM compiles per run like the tree
/// walker constructs its Impl).
[[nodiscard]] CompiledModule compile(const ast::Module& module,
                                     const sema::TypeInfo& types,
                                     const std::string& focus_function = {});

/// Human-readable listing of one function / the whole module, used by the
/// lowering snapshot tests. Loop operands print as pool indices (node ids
/// are process-unique and would not be stable snapshot material).
[[nodiscard]] std::string disassemble(const CompiledModule& module,
                                      const CompiledFunction& fn);
[[nodiscard]] std::string disassemble(const CompiledModule& module);

} // namespace psaflow::interp::bc
