#include "support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "support/error.hpp"

namespace psaflow::json {

Value Value::null() { return Value{}; }

Value Value::boolean(bool v) {
    Value out;
    out.kind = Kind::Bool;
    out.bool_value = v;
    return out;
}

Value Value::number(double v) {
    Value out;
    out.kind = Kind::Number;
    out.number_value = v;
    return out;
}

Value Value::string(std::string v) {
    Value out;
    out.kind = Kind::String;
    out.string_value = std::move(v);
    return out;
}

Value Value::array() {
    Value out;
    out.kind = Kind::Array;
    return out;
}

Value Value::object() {
    Value out;
    out.kind = Kind::Object;
    return out;
}

Value& Value::set(std::string key, Value v) {
    ensure(kind == Kind::Object, "json::Value::set on a non-object");
    for (auto& [name, value] : members) {
        if (name == key) {
            value = std::move(v);
            return *this;
        }
    }
    members.emplace_back(std::move(key), std::move(v));
    return *this;
}

Value& Value::push(Value v) {
    ensure(kind == Kind::Array, "json::Value::push on a non-array");
    elements.push_back(std::move(v));
    return *this;
}

const Value* Value::find(std::string_view key) const {
    if (kind != Kind::Object) return nullptr;
    for (const auto& [name, value] : members) {
        if (name == key) return &value;
    }
    return nullptr;
}

std::string Value::string_or(std::string def) const {
    return kind == Kind::String ? string_value : std::move(def);
}

double Value::number_or(double def) const {
    return kind == Kind::Number ? number_value : def;
}

bool Value::bool_or(bool def) const {
    return kind == Kind::Bool ? bool_value : def;
}

namespace {

class Parser {
public:
    Parser(std::string_view text, std::string* error)
        : text_(text), error_(error) {}

    std::optional<Value> run() {
        skip_ws();
        Value out;
        if (!parse_value(out)) return std::nullopt;
        skip_ws();
        if (pos_ != text_.size()) {
            set_error("trailing characters after JSON document");
            return std::nullopt;
        }
        return out;
    }

private:
    void set_error(const std::string& message) {
        if (error_ != nullptr && error_->empty())
            *error_ = message + " at byte " + std::to_string(pos_);
    }

    [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
    [[nodiscard]] char peek() const { return text_[pos_]; }

    void skip_ws() {
        while (!at_end() && (peek() == ' ' || peek() == '\t' ||
                             peek() == '\n' || peek() == '\r'))
            ++pos_;
    }

    bool expect(char c) {
        if (at_end() || peek() != c) {
            set_error(std::string("expected '") + c + "'");
            return false;
        }
        ++pos_;
        return true;
    }

    bool parse_value(Value& out) {
        if (at_end()) {
            set_error("unexpected end of input");
            return false;
        }
        switch (peek()) {
            case '{':
            case '[': {
                // The recursion below is the only unbounded one: cap it.
                if (depth_ == kMaxNestingDepth) {
                    set_error("nesting deeper than " +
                              std::to_string(kMaxNestingDepth));
                    return false;
                }
                ++depth_;
                const bool ok =
                    peek() == '{' ? parse_object(out) : parse_array(out);
                --depth_;
                return ok;
            }
            case '"': {
                out.kind = Value::Kind::String;
                return parse_string(out.string_value);
            }
            case 't': return parse_literal("true", out, Value::Kind::Bool,
                                           /*bool_value=*/true);
            case 'f': return parse_literal("false", out, Value::Kind::Bool,
                                           /*bool_value=*/false);
            case 'n': return parse_literal("null", out, Value::Kind::Null,
                                           /*bool_value=*/false);
            default: return parse_number(out);
        }
    }

    bool parse_literal(std::string_view word, Value& out, Value::Kind kind,
                       bool bool_value) {
        if (text_.substr(pos_, word.size()) != word) {
            set_error("invalid literal");
            return false;
        }
        pos_ += word.size();
        out.kind = kind;
        out.bool_value = bool_value;
        return true;
    }

    bool parse_number(Value& out) {
        const std::size_t start = pos_;
        if (!at_end() && peek() == '-') ++pos_;
        while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                             peek() == '.' || peek() == 'e' || peek() == 'E' ||
                             peek() == '+' || peek() == '-'))
            ++pos_;
        if (pos_ == start) {
            set_error("invalid value");
            return false;
        }
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            pos_ = start;
            set_error("invalid number");
            return false;
        }
        out.kind = Value::Kind::Number;
        out.number_value = value;
        return true;
    }

    bool parse_string(std::string& out) {
        if (!expect('"')) return false;
        out.clear();
        while (true) {
            if (at_end()) {
                set_error("unterminated string");
                return false;
            }
            const char c = text_[pos_++];
            if (c == '"') return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (at_end()) {
                set_error("unterminated escape");
                return false;
            }
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        if (at_end()) {
                            set_error("truncated \\u escape");
                            return false;
                        }
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= unsigned(h - 'A' + 10);
                        else {
                            set_error("invalid \\u escape");
                            return false;
                        }
                    }
                    // Minimal UTF-8 encode of the BMP code point.
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xc0 | (code >> 6)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    } else {
                        out.push_back(static_cast<char>(0xe0 | (code >> 12)));
                        out.push_back(
                            static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    }
                    break;
                }
                default: set_error("invalid escape"); return false;
            }
        }
    }

    bool parse_array(Value& out) {
        if (!expect('[')) return false;
        out.kind = Value::Kind::Array;
        skip_ws();
        if (!at_end() && peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            Value element;
            skip_ws();
            if (!parse_value(element)) return false;
            out.elements.push_back(std::move(element));
            skip_ws();
            if (at_end()) {
                set_error("unterminated array");
                return false;
            }
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            return expect(']');
        }
    }

    bool parse_object(Value& out) {
        if (!expect('{')) return false;
        out.kind = Value::Kind::Object;
        skip_ws();
        if (!at_end() && peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            std::string key;
            if (!parse_string(key)) return false;
            skip_ws();
            if (!expect(':')) return false;
            skip_ws();
            Value value;
            if (!parse_value(value)) return false;
            out.members.emplace_back(std::move(key), std::move(value));
            skip_ws();
            if (at_end()) {
                set_error("unterminated object");
                return false;
            }
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            return expect('}');
        }
    }

    std::string_view text_;
    std::string* error_;
    std::size_t pos_ = 0;
    int depth_ = 0; ///< arrays/objects currently open
};

} // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
    if (error != nullptr) error->clear();
    return Parser(text, error).run();
}

namespace {

void dump_string(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void dump_number(std::string& out, double v) {
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        out += std::to_string(static_cast<long long>(v));
        return;
    }
    std::ostringstream os;
    os.precision(17);
    os << v;
    out += os.str();
}

void dump_value(std::string& out, const Value& value) {
    switch (value.kind) {
        case Value::Kind::Null: out += "null"; break;
        case Value::Kind::Bool: out += value.bool_value ? "true" : "false"; break;
        case Value::Kind::Number: dump_number(out, value.number_value); break;
        case Value::Kind::String: dump_string(out, value.string_value); break;
        case Value::Kind::Array: {
            out += '[';
            for (std::size_t i = 0; i < value.elements.size(); ++i) {
                if (i > 0) out += ',';
                dump_value(out, value.elements[i]);
            }
            out += ']';
            break;
        }
        case Value::Kind::Object: {
            out += '{';
            for (std::size_t i = 0; i < value.members.size(); ++i) {
                if (i > 0) out += ',';
                dump_string(out, value.members[i].first);
                out += ':';
                dump_value(out, value.members[i].second);
            }
            out += '}';
            break;
        }
    }
}

} // namespace

std::string dump(const Value& value) {
    std::string out;
    dump_value(out, value);
    return out;
}

} // namespace psaflow::json
