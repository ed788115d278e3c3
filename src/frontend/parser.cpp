#include "frontend/parser.hpp"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ast/builder.hpp"
#include "frontend/lexer.hpp"
#include "support/error.hpp"

namespace psaflow::frontend {

namespace {

using namespace psaflow::ast;

/// Deepest expression or statement nesting accepted. Parsing recurses once
/// per level, so without a cap hostile input (200,000 nested parentheses)
/// exhausts the stack; past it the parser throws a located ParseError.
constexpr int kMaxNesting = 256;

class Parser {
public:
    explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

    ModulePtr module(std::string name) {
        auto mod = std::make_unique<Module>();
        mod->name = std::move(name);
        mod->loc = peek().loc;
        while (!at(TokKind::End)) mod->functions.push_back(function());
        return mod;
    }

    ExprPtr bare_expression() {
        ExprPtr e = expression();
        expect(TokKind::End, "end of expression");
        return e;
    }

private:
    // ---- token plumbing ----------------------------------------------------

    [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
        const std::size_t i = pos_ + ahead;
        return i < toks_.size() ? toks_[i] : toks_.back();
    }

    [[nodiscard]] bool at(TokKind kind) const { return peek().kind == kind; }

    const Token& advance() { return toks_[pos_++]; }

    bool accept(TokKind kind) {
        if (!at(kind)) return false;
        advance();
        return true;
    }

    const Token& expect(TokKind kind, const char* what) {
        if (!at(kind)) {
            throw ParseError(peek().loc,
                             std::string("expected ") + what + ", found '" +
                                 to_string(peek().kind) + "'");
        }
        return advance();
    }

    [[noreturn]] void fail(const std::string& msg) const {
        throw ParseError(peek().loc, msg);
    }

    /// One level of recursive descent, held for the duration of the
    /// nested parse (see kMaxNesting).
    class Nest {
    public:
        explicit Nest(Parser& parser) : parser_(parser) {
            if (parser_.depth_ == kMaxNesting)
                parser_.fail("nesting deeper than " +
                             std::to_string(kMaxNesting) + " levels");
            ++parser_.depth_;
        }
        ~Nest() { --parser_.depth_; }
        Nest(const Nest&) = delete;
        Nest& operator=(const Nest&) = delete;

    private:
        Parser& parser_;
    };

    // ---- declarations ------------------------------------------------------

    [[nodiscard]] bool at_type() const {
        switch (peek().kind) {
            case TokKind::KwVoid:
            case TokKind::KwBool:
            case TokKind::KwInt:
            case TokKind::KwFloat:
            case TokKind::KwDouble: return true;
            default: return false;
        }
    }

    Type type_keyword() {
        switch (advance().kind) {
            case TokKind::KwVoid: return Type::Void;
            case TokKind::KwBool: return Type::Bool;
            case TokKind::KwInt: return Type::Int;
            case TokKind::KwFloat: return Type::Float;
            case TokKind::KwDouble: return Type::Double;
            default: fail("expected a type keyword");
        }
    }

    FunctionPtr function() {
        auto fn = std::make_unique<Function>();
        fn->loc = peek().loc;
        if (!at_type()) fail("expected function return type");
        fn->ret = type_keyword();
        fn->name = expect(TokKind::Identifier, "function name").text;
        expect(TokKind::LParen, "'('");
        if (!at(TokKind::RParen)) {
            do {
                auto p = std::make_unique<Param>();
                p->loc = peek().loc;
                if (!at_type()) fail("expected parameter type");
                p->type.elem = type_keyword();
                p->type.is_pointer = accept(TokKind::Star);
                p->name = expect(TokKind::Identifier, "parameter name").text;
                fn->params.push_back(std::move(p));
            } while (accept(TokKind::Comma));
        }
        expect(TokKind::RParen, "')'");
        fn->body = block();
        return fn;
    }

    // ---- statements ----------------------------------------------------

    BlockPtr block() {
        auto b = std::make_unique<Block>();
        b->loc = peek().loc;
        expect(TokKind::LBrace, "'{'");
        while (!at(TokKind::RBrace)) {
            if (at(TokKind::End)) fail("unterminated block");
            b->stmts.push_back(statement());
        }
        expect(TokKind::RBrace, "'}'");
        return b;
    }

    /// A braced block, or a single statement wrapped in a block.
    BlockPtr block_or_single() {
        if (at(TokKind::LBrace)) return block();
        auto b = std::make_unique<Block>();
        b->loc = peek().loc;
        b->stmts.push_back(statement());
        return b;
    }

    StmtPtr statement() {
        const Nest nest(*this);
        // Attach any pragma lines to the statement they precede.
        std::vector<std::string> pragmas;
        while (at(TokKind::Pragma)) pragmas.push_back(advance().text);

        StmtPtr s = core_statement();
        // Prepend so pragmas written in source come before any attached later.
        s->pragmas.insert(s->pragmas.begin(), pragmas.begin(), pragmas.end());
        return s;
    }

    StmtPtr core_statement() {
        if (at(TokKind::LBrace)) return block();
        if (at(TokKind::KwIf)) return if_statement();
        if (at(TokKind::KwFor)) return for_statement();
        if (at(TokKind::KwWhile)) return while_statement();
        if (at(TokKind::KwReturn)) return return_statement();
        if (at_type()) return var_decl_statement();
        return assign_or_expr_statement();
    }

    StmtPtr var_decl_statement() {
        auto d = std::make_unique<VarDecl>();
        d->loc = peek().loc;
        d->elem = type_keyword();
        if (d->elem == Type::Void) fail("cannot declare a 'void' variable");
        d->name = expect(TokKind::Identifier, "variable name").text;
        if (accept(TokKind::LBracket)) {
            d->is_array = true;
            d->array_size = expression();
            expect(TokKind::RBracket, "']'");
        }
        if (accept(TokKind::Assign)) {
            if (d->is_array) fail("array initialisers are not supported");
            d->init = expression();
        }
        expect(TokKind::Semicolon, "';'");
        return d;
    }

    StmtPtr if_statement() {
        auto s = std::make_unique<If>();
        s->loc = peek().loc;
        expect(TokKind::KwIf, "'if'");
        expect(TokKind::LParen, "'('");
        s->cond = expression();
        expect(TokKind::RParen, "')'");
        s->then_body = block_or_single();
        if (accept(TokKind::KwElse)) {
            if (at(TokKind::KwIf)) {
                // `else if` chain: wrap the nested if into an else-block.
                const Nest nest(*this);
                auto wrapper = std::make_unique<Block>();
                wrapper->loc = peek().loc;
                wrapper->stmts.push_back(if_statement());
                s->else_body = std::move(wrapper);
            } else {
                s->else_body = block_or_single();
            }
        }
        return s;
    }

    StmtPtr for_statement() {
        auto s = std::make_unique<For>();
        s->loc = peek().loc;
        expect(TokKind::KwFor, "'for'");
        expect(TokKind::LParen, "'('");

        expect(TokKind::KwInt, "'int' (for-loops must declare their induction "
                               "variable as 'int')");
        s->var = expect(TokKind::Identifier, "induction variable").text;
        expect(TokKind::Assign, "'='");
        s->init = expression();
        expect(TokKind::Semicolon, "';'");

        // Condition: `i < e` or `i <= e` (normalised to `< e + 1`).
        const std::string& cond_var =
            expect(TokKind::Identifier, "induction variable in condition").text;
        if (cond_var != s->var)
            fail("for-loop condition must test the induction variable '" +
                 s->var + "'");
        if (accept(TokKind::Lt)) {
            s->limit = expression();
        } else if (accept(TokKind::Le)) {
            s->limit = build::add(expression(), build::int_lit(1));
        } else {
            fail("for-loop condition must be '<' or '<='");
        }
        expect(TokKind::Semicolon, "';'");

        // Step: `i = i + c` | `i += c` | `i++` | `++i`.
        if (accept(TokKind::PlusPlus)) {
            const std::string& v =
                expect(TokKind::Identifier, "induction variable").text;
            if (v != s->var) fail("for-loop step must update '" + s->var + "'");
            s->step = build::int_lit(1);
        } else {
            const std::string& v =
                expect(TokKind::Identifier, "induction variable").text;
            if (v != s->var) fail("for-loop step must update '" + s->var + "'");
            if (accept(TokKind::PlusPlus)) {
                s->step = build::int_lit(1);
            } else if (accept(TokKind::PlusAssign)) {
                s->step = expression();
            } else if (accept(TokKind::Assign)) {
                const std::string& v2 =
                    expect(TokKind::Identifier, "induction variable").text;
                if (v2 != s->var)
                    fail("for-loop step must be '" + s->var + " = " + s->var +
                         " + <expr>'");
                expect(TokKind::Plus, "'+'");
                s->step = expression();
            } else {
                fail("unsupported for-loop step form");
            }
        }
        expect(TokKind::RParen, "')'");
        s->body = block_or_single();
        return s;
    }

    StmtPtr while_statement() {
        auto s = std::make_unique<While>();
        s->loc = peek().loc;
        expect(TokKind::KwWhile, "'while'");
        expect(TokKind::LParen, "'('");
        s->cond = expression();
        expect(TokKind::RParen, "')'");
        s->body = block_or_single();
        return s;
    }

    StmtPtr return_statement() {
        auto s = std::make_unique<Return>();
        s->loc = peek().loc;
        expect(TokKind::KwReturn, "'return'");
        if (!at(TokKind::Semicolon)) s->value = expression();
        expect(TokKind::Semicolon, "';'");
        return s;
    }

    StmtPtr assign_or_expr_statement() {
        const SrcLoc loc = peek().loc;
        ExprPtr lhs = expression();

        std::optional<AssignOp> op;
        if (accept(TokKind::Assign)) op = AssignOp::Set;
        else if (accept(TokKind::PlusAssign)) op = AssignOp::Add;
        else if (accept(TokKind::MinusAssign)) op = AssignOp::Sub;
        else if (accept(TokKind::StarAssign)) op = AssignOp::Mul;
        else if (accept(TokKind::SlashAssign)) op = AssignOp::Div;

        if (op.has_value()) {
            if (lhs->kind() != NodeKind::Ident && lhs->kind() != NodeKind::Index)
                throw ParseError(loc, "assignment target must be a variable or "
                                      "array element");
            auto s = std::make_unique<Assign>();
            s->loc = loc;
            s->op = *op;
            s->target = std::move(lhs);
            s->value = expression();
            expect(TokKind::Semicolon, "';'");
            return s;
        }

        auto s = std::make_unique<ExprStmt>();
        s->loc = loc;
        s->expr = std::move(lhs);
        expect(TokKind::Semicolon, "';'");
        return s;
    }

    // ---- expressions ----------------------------------------------------

    ExprPtr expression() { return binary_expr(0); }

    struct OpInfo {
        BinaryOp op;
        int prec;
    };

    [[nodiscard]] std::optional<OpInfo> binop_at() const {
        switch (peek().kind) {
            case TokKind::OrOr: return OpInfo{BinaryOp::Or, 1};
            case TokKind::AndAnd: return OpInfo{BinaryOp::And, 2};
            case TokKind::EqEq: return OpInfo{BinaryOp::Eq, 3};
            case TokKind::NotEq: return OpInfo{BinaryOp::Ne, 3};
            case TokKind::Lt: return OpInfo{BinaryOp::Lt, 4};
            case TokKind::Le: return OpInfo{BinaryOp::Le, 4};
            case TokKind::Gt: return OpInfo{BinaryOp::Gt, 4};
            case TokKind::Ge: return OpInfo{BinaryOp::Ge, 4};
            case TokKind::Plus: return OpInfo{BinaryOp::Add, 5};
            case TokKind::Minus: return OpInfo{BinaryOp::Sub, 5};
            case TokKind::Star: return OpInfo{BinaryOp::Mul, 6};
            case TokKind::Slash: return OpInfo{BinaryOp::Div, 6};
            case TokKind::Percent: return OpInfo{BinaryOp::Mod, 6};
            default: return std::nullopt;
        }
    }

    ExprPtr binary_expr(int min_prec) {
        ExprPtr lhs = unary_expr();
        while (true) {
            auto info = binop_at();
            if (!info.has_value() || info->prec < min_prec) return lhs;
            const SrcLoc loc = peek().loc;
            advance();
            // Left-associative: parse the right side at prec+1.
            ExprPtr rhs = binary_expr(info->prec + 1);
            auto node = std::make_unique<Binary>();
            node->loc = loc;
            node->op = info->op;
            node->lhs = std::move(lhs);
            node->rhs = std::move(rhs);
            lhs = std::move(node);
        }
    }

    ExprPtr unary_expr() {
        const Nest nest(*this);
        const SrcLoc loc = peek().loc;
        if (accept(TokKind::Minus)) {
            auto node = std::make_unique<Unary>();
            node->loc = loc;
            node->op = UnaryOp::Neg;
            node->operand = unary_expr();
            return node;
        }
        if (accept(TokKind::Not)) {
            auto node = std::make_unique<Unary>();
            node->loc = loc;
            node->op = UnaryOp::Not;
            node->operand = unary_expr();
            return node;
        }
        return postfix_expr();
    }

    ExprPtr postfix_expr() {
        ExprPtr e = primary_expr();
        while (true) {
            if (at(TokKind::LBracket)) {
                const SrcLoc loc = peek().loc;
                advance();
                auto node = std::make_unique<Index>();
                node->loc = loc;
                node->base = std::move(e);
                node->index = expression();
                expect(TokKind::RBracket, "']'");
                e = std::move(node);
            } else {
                return e;
            }
        }
    }

    ExprPtr primary_expr() {
        const Token& tok = peek();
        switch (tok.kind) {
            case TokKind::IntLiteral: {
                advance();
                auto e = std::make_unique<IntLit>();
                e->loc = tok.loc;
                e->value = tok.int_value;
                return e;
            }
            case TokKind::FloatLiteral: {
                advance();
                auto e = std::make_unique<FloatLit>();
                e->loc = tok.loc;
                e->value = tok.float_value;
                e->single = tok.float_single;
                e->spelling = tok.text;
                return e;
            }
            case TokKind::KwTrue:
            case TokKind::KwFalse: {
                advance();
                auto e = std::make_unique<BoolLit>();
                e->loc = tok.loc;
                e->value = tok.kind == TokKind::KwTrue;
                return e;
            }
            case TokKind::Identifier: {
                advance();
                if (at(TokKind::LParen)) {
                    advance();
                    auto e = std::make_unique<Call>();
                    e->loc = tok.loc;
                    e->callee = tok.text;
                    if (!at(TokKind::RParen)) {
                        do {
                            e->args.push_back(expression());
                        } while (accept(TokKind::Comma));
                    }
                    expect(TokKind::RParen, "')'");
                    return e;
                }
                auto e = std::make_unique<Ident>();
                e->loc = tok.loc;
                e->name = tok.text;
                return e;
            }
            case TokKind::LParen: {
                advance();
                ExprPtr e = expression();
                expect(TokKind::RParen, "')'");
                return e;
            }
            default:
                fail(std::string("expected an expression, found '") +
                     to_string(tok.kind) + "'");
        }
    }

    std::vector<Token> toks_;
    std::size_t pos_ = 0;
    int depth_ = 0; ///< open Nest levels
};

} // namespace

ast::ModulePtr parse_module(std::string_view source, std::string module_name) {
    Parser p(lex(source));
    return p.module(std::move(module_name));
}

ast::ExprPtr parse_expression(std::string_view source) {
    Parser p(lex(source));
    return p.bare_expression();
}

} // namespace psaflow::frontend
