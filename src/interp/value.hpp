// Runtime values and buffers for the HLC interpreter.
//
// The interpreter is the substitute for native execution in the paper's
// *dynamic* design-flow tasks (hotspot detection, trip-count, data-movement
// and alias analyses all carry the "requires program execution" marker in
// Fig. 4). Scalars are stored widened; the static type tag decides rounding
// so single-precision transforms are observable in results.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ast/type.hpp"
#include "support/error.hpp"

namespace psaflow::interp {

/// The one NaN a run lets out. IEEE 754 leaves the sign of a NaN result
/// open, x86 returns the first operand's NaN, and a compiler may order the
/// operands of `a + b` either way, so the tree walker and the VM can hold
/// NaNs of opposite sign for the same operation. Inside a run that sign
/// is unobservable: no comparison, integer conversion or builtin gives a
/// non-NaN result that depends on it. Values leave a run only through
/// Buffer::store and the entry function's result (Value::canonical), and
/// both pass through here, so the engines agree by construction.
[[nodiscard]] inline double canonical_nan(double v) {
    return v != v ? std::numeric_limits<double>::quiet_NaN() : v;
}

/// A scalar runtime value with its HLC type.
class Value {
public:
    Value() = default;

    [[nodiscard]] static Value of_int(long long v) {
        Value out;
        out.type_ = ast::Type::Int;
        out.int_ = v;
        return out;
    }
    [[nodiscard]] static Value of_bool(bool v) {
        Value out;
        out.type_ = ast::Type::Bool;
        out.bool_ = v;
        return out;
    }
    [[nodiscard]] static Value of_double(double v) {
        Value out;
        out.type_ = ast::Type::Double;
        out.num_ = v;
        return out;
    }
    /// Stored at float precision (rounded), typed Float.
    [[nodiscard]] static Value of_float(double v) {
        Value out;
        out.type_ = ast::Type::Float;
        out.num_ = static_cast<double>(static_cast<float>(v));
        return out;
    }
    [[nodiscard]] static Value void_value() { return Value{}; }

    [[nodiscard]] ast::Type type() const { return type_; }

    /// Numeric read with implicit conversion; throws for bool/void.
    [[nodiscard]] double as_double() const {
        switch (type_) {
            case ast::Type::Int: return static_cast<double>(int_);
            case ast::Type::Float:
            case ast::Type::Double: return num_;
            default: throw InterpError("value is not numeric");
        }
    }

    /// Integer read; floating values truncate toward zero (C semantics).
    [[nodiscard]] long long as_int() const {
        switch (type_) {
            case ast::Type::Int: return int_;
            case ast::Type::Float:
            case ast::Type::Double: return static_cast<long long>(num_);
            default: throw InterpError("value is not numeric");
        }
    }

    [[nodiscard]] bool as_bool() const {
        if (type_ != ast::Type::Bool)
            throw InterpError("value is not bool");
        return bool_;
    }

    /// This value with any NaN made canonical_nan(), for returning out of
    /// a run.
    [[nodiscard]] Value canonical() const {
        Value out = *this;
        if (type_ == ast::Type::Float || type_ == ast::Type::Double)
            out.num_ = canonical_nan(num_);
        return out;
    }

    /// Convert to the declared type `want` (assignment / parameter passing).
    [[nodiscard]] Value convert_to(ast::Type want) const {
        switch (want) {
            case ast::Type::Int: return of_int(as_int());
            case ast::Type::Float: return of_float(as_double());
            case ast::Type::Double: return of_double(as_double());
            case ast::Type::Bool: return of_bool(as_bool());
            default: throw InterpError("cannot convert to void");
        }
    }

private:
    ast::Type type_ = ast::Type::Void;
    double num_ = 0.0;
    long long int_ = 0;
    bool bool_ = false;
};

/// A typed linear buffer backing an HLC array. Buffers have identity (`id`)
/// — the dynamic pointer-alias analysis checks whether two kernel arguments
/// name the same buffer.
class Buffer {
public:
    Buffer(ast::Type elem, std::size_t size, std::string name = {})
        : elem_(elem), name_(std::move(name)), data_(size, 0.0),
          id_(next_id()) {
        ensure(is_numeric(elem), "buffers hold numeric elements");
    }

    [[nodiscard]] ast::Type elem_type() const { return elem_; }
    [[nodiscard]] std::size_t size() const { return data_.size(); }
    [[nodiscard]] int id() const { return id_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    /// ast::size_of(elem_type()) for the numeric types a buffer can hold
    /// (checked at construction), without size_of's switch and throw: the
    /// interpreters charge it on every element access.
    [[nodiscard]] int elem_bytes() const {
        return elem_ == ast::Type::Float ? 4 : 8;
    }

    [[nodiscard]] double load(long long index) const {
        check(index);
        return data_[static_cast<std::size_t>(index)];
    }

    void store(long long index, double value) {
        check(index);
        // Stores round to the element type so float arrays behave like
        // float arrays.
        if (elem_ == ast::Type::Float)
            value = static_cast<double>(static_cast<float>(value));
        else if (elem_ == ast::Type::Int)
            value = static_cast<double>(static_cast<long long>(value));
        data_[static_cast<std::size_t>(index)] = canonical_nan(value);
    }

    [[nodiscard]] const std::vector<double>& raw() const { return data_; }
    [[nodiscard]] std::vector<double>& raw() { return data_; }

private:
    void check(long long index) const {
        if (index < 0 || static_cast<std::size_t>(index) >= data_.size())
            throw InterpError("buffer '" + name_ + "' index " +
                              std::to_string(index) + " out of bounds [0, " +
                              std::to_string(data_.size()) + ")");
    }

    static int next_id();

    ast::Type elem_;
    std::string name_;
    std::vector<double> data_;
    int id_;
};

using BufferPtr = std::shared_ptr<Buffer>;

} // namespace psaflow::interp
