#include "sema/builtins.hpp"

#include <array>
#include <cmath>

#include "support/error.hpp"

namespace psaflow::sema {

namespace {

using ast::Type;

constexpr float narrow(double x) { return static_cast<float>(x); }

// Flop costs approximate instruction counts on contemporary hardware and are
// the per-call charge used by the arithmetic-intensity analysis and the
// device performance models. They matter *relatively* (exp is ~8x an add),
// not absolutely. Each *f implementation calls the float overload of the
// same <cmath> function on narrowed arguments.
constexpr std::array<BuiltinInfo, 26> kBuiltins = {{
    {"sqrt", 1, Type::Double, 4, "sqrtf", false, Domain::NonNegative,
     [](double x, double) -> double { return std::sqrt(x); }},
    {"sqrtf", 1, Type::Float, 4, "", true, Domain::NonNegative,
     [](double x, double) -> double { return std::sqrt(narrow(x)); }},
    {"exp", 1, Type::Double, 8, "expf", false, Domain::Any,
     [](double x, double) -> double { return std::exp(x); }},
    {"expf", 1, Type::Float, 8, "", true, Domain::Any,
     [](double x, double) -> double { return std::exp(narrow(x)); }},
    {"log", 1, Type::Double, 8, "logf", false, Domain::Positive,
     [](double x, double) -> double { return std::log(x); }},
    {"logf", 1, Type::Float, 8, "", true, Domain::Positive,
     [](double x, double) -> double { return std::log(narrow(x)); }},
    {"pow", 2, Type::Double, 16, "powf", false, Domain::Any,
     [](double x, double y) -> double { return std::pow(x, y); }},
    {"powf", 2, Type::Float, 16, "", true, Domain::Any,
     [](double x, double y) -> double {
         return std::pow(narrow(x), narrow(y));
     }},
    {"sin", 1, Type::Double, 8, "sinf", false, Domain::Any,
     [](double x, double) -> double { return std::sin(x); }},
    {"sinf", 1, Type::Float, 8, "", true, Domain::Any,
     [](double x, double) -> double { return std::sin(narrow(x)); }},
    {"cos", 1, Type::Double, 8, "cosf", false, Domain::Any,
     [](double x, double) -> double { return std::cos(x); }},
    {"cosf", 1, Type::Float, 8, "", true, Domain::Any,
     [](double x, double) -> double { return std::cos(narrow(x)); }},
    {"tanh", 1, Type::Double, 10, "tanhf", false, Domain::Any,
     [](double x, double) -> double { return std::tanh(x); }},
    {"tanhf", 1, Type::Float, 10, "", true, Domain::Any,
     [](double x, double) -> double { return std::tanh(narrow(x)); }},
    {"erf", 1, Type::Double, 12, "erff", false, Domain::Any,
     [](double x, double) -> double { return std::erf(x); }},
    {"erff", 1, Type::Float, 12, "", true, Domain::Any,
     [](double x, double) -> double { return std::erf(narrow(x)); }},
    {"erfc", 1, Type::Double, 12, "erfcf", false, Domain::Any,
     [](double x, double) -> double { return std::erfc(x); }},
    {"erfcf", 1, Type::Float, 12, "", true, Domain::Any,
     [](double x, double) -> double { return std::erfc(narrow(x)); }},
    {"fabs", 1, Type::Double, 1, "fabsf", false, Domain::Any,
     [](double x, double) -> double { return std::fabs(x); }},
    {"fabsf", 1, Type::Float, 1, "", true, Domain::Any,
     [](double x, double) -> double { return std::fabs(narrow(x)); }},
    {"floor", 1, Type::Double, 1, "floorf", false, Domain::Any,
     [](double x, double) -> double { return std::floor(x); }},
    {"floorf", 1, Type::Float, 1, "", true, Domain::Any,
     [](double x, double) -> double { return std::floor(narrow(x)); }},
    {"fmin", 2, Type::Double, 1, "fminf", false, Domain::Any,
     [](double x, double y) -> double { return std::fmin(x, y); }},
    {"fminf", 2, Type::Float, 1, "", true, Domain::Any,
     [](double x, double y) -> double {
         return std::fmin(narrow(x), narrow(y));
     }},
    {"fmax", 2, Type::Double, 1, "fmaxf", false, Domain::Any,
     [](double x, double y) -> double { return std::fmax(x, y); }},
    {"fmaxf", 2, Type::Float, 1, "", true, Domain::Any,
     [](double x, double y) -> double {
         return std::fmax(narrow(x), narrow(y));
     }},
}};

} // namespace

const BuiltinInfo* find_builtin(std::string_view name) {
    for (const auto& b : kBuiltins) {
        if (b.name == name) return &b;
    }
    return nullptr;
}

std::span<const BuiltinInfo> all_builtins() { return kBuiltins; }

void throw_domain_error(const BuiltinInfo& info) {
    throw Error(std::string(info.name) + (info.domain == Domain::Positive
                                              ? " of non-positive value"
                                              : " of negative value"));
}

double eval_builtin(const BuiltinInfo& info, std::span<const double> args) {
    if (static_cast<int>(args.size()) != info.arity)
        throw Error("builtin '" + std::string(info.name) + "' arity mismatch");
    return apply_builtin(info, args[0], info.arity > 1 ? args[1] : 0.0);
}

} // namespace psaflow::sema
