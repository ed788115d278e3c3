// The HLC builtin math library. One catalog shared by the type checker, the
// interpreter, the arithmetic-intensity analysis (flop costs) and the
// single-precision transforms (double->float equivalents, mirroring the
// paper's "Employ SP Math Fns" task).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ast/type.hpp"

namespace psaflow::sema {

/// Argument domain a builtin checks before computing: the inputs the real
/// libm would trap on are runtime errors instead.
enum class Domain : std::uint8_t {
    Any,         ///< no check
    NonNegative, ///< x >= 0 (sqrt)
    Positive,    ///< x > 0 (log)
};

struct BuiltinInfo {
    std::string_view name;
    int arity;
    ast::Type result;              ///< Double or Float
    int flop_cost;                 ///< cost charged per evaluation
    std::string_view sp_variant;   ///< float equivalent ("" if none / already SP)
    bool is_single;                ///< true for the *f variants
    Domain domain;                 ///< checked on the first argument
    /// The computation. `y` is ignored by unary builtins; the *f variants
    /// narrow both arguments to float, compute in float and widen the
    /// result, so it is always exactly representable as a float.
    double (*impl)(double x, double y);
};

/// Catalog lookup; null when `name` is not a builtin.
[[nodiscard]] const BuiltinInfo* find_builtin(std::string_view name);

/// All builtins, for enumeration in tests/docs.
[[nodiscard]] std::span<const BuiltinInfo> all_builtins();

/// Throws Error with the builtin's domain message ("sqrt of negative
/// value", "logf of non-positive value", ...).
[[noreturn]] void throw_domain_error(const BuiltinInfo& info);

/// Evaluate a builtin on already-counted arguments: the domain check, then
/// `impl`. The *f variants check the argument after narrowing to float,
/// the value they compute on. Allocation-free unless it throws.
inline double apply_builtin(const BuiltinInfo& info, double x, double y) {
    if (info.domain != Domain::Any) {
        // Widening a float back to double is exact, so comparing there is
        // the same as comparing in float.
        const double v =
            info.is_single ? static_cast<double>(static_cast<float>(x)) : x;
        const bool ok = info.domain == Domain::Positive ? v > 0.0 : v >= 0.0;
        if (!ok) throw_domain_error(info);
    }
    return info.impl(x, y);
}

/// Evaluate a builtin on concrete arguments (used by the interpreter). For
/// single-precision variants the computation is performed in float, so SP
/// transforms are observable in results. Throws on arity mismatch or domain
/// errors the real libm would trap (sqrt of negative, log of non-positive).
[[nodiscard]] double eval_builtin(const BuiltinInfo& info,
                                  std::span<const double> args);

} // namespace psaflow::sema
